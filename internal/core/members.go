package core

import (
	"errors"
	"fmt"
	"sync"

	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
)

// Provider supplies one federation member's intermediate results to the
// leader. The in-memory LocalMember backs it directly with a genotype shard;
// the federation middleware backs it with encrypted requests to the member's
// enclave. The leader never sees raw genotypes through this interface — only
// the aggregable intermediates the paper allows to leave a GDO.
type Provider interface {
	// Counts returns the member's local minor-allele count vector over the
	// original SNP set (Phase 1's caseLocalCounts).
	Counts() ([]int64, error)
	// CaseN returns the member's local case-population size.
	CaseN() (int64, error)
	// PairStats returns the member's local correlation sufficient
	// statistics for a SNP pair (Phase 2).
	PairStats(a, b int) (genome.PairStats, error)
	// LRMatrix builds the member's local LR-matrix over the given columns
	// (original SNP indices) using the pooled frequencies broadcast by the
	// leader. The matrix travels bit-packed end to end: members build it
	// packed and the wire format ships it packed. The assessment itself
	// asks for patterns (PatternProvider) and skins them leader-side.
	LRMatrix(cols []int, caseFreq, refFreq []float64) (*lrtest.BitMatrix, error)
	// PatternProvider ships the member's Phase 3 input.
	PatternProvider
}

// BatchPairProvider is an optional Provider extension: the leader prefetches
// many pair statistics in one round trip (one request per member per LD
// sweep instead of one per pair), which cuts the protocol's message count by
// orders of magnitude over wide-area links.
type BatchPairProvider interface {
	// PairStatsBatch returns one statistics entry per requested pair, in
	// order.
	PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error)
}

// PatternProvider ships a member's genotype bit-pattern over the retained
// columns — the frequency-independent cell bits of its LR-matrix, with zero
// representatives. A collusion-tolerant Phase 3 evaluates many combinations
// over the same columns, and each combination differs only in its pooled
// frequency vectors; with the pattern in hand the leader derives every
// combination's member contribution locally via Reskin, so each member is
// contacted once per assessment instead of once per combination. Every
// Provider is one.
type PatternProvider interface {
	// LRPattern returns the member's genotype bit-pattern over the given
	// columns (original SNP indices).
	LRPattern(cols []int) (*lrtest.BitMatrix, error)
}

// LocalMember is an in-process Provider over a private genotype shard. It
// answers every query from the shard's column-major view (Matrix.Columns),
// which the matrix builds once and shares: a pair-statistics request is a
// stride-1 AND+popcount and a Phase-3 pattern a copy of whole columns. The
// member itself holds no state, so one value serves concurrent assessments.
type LocalMember struct {
	shard *genome.Matrix
}

var (
	_ Provider          = (*LocalMember)(nil)
	_ BatchPairProvider = (*LocalMember)(nil)
)

// NewLocalMember wraps a genotype shard. The shard must not be written
// afterwards (see DESIGN.md, "Prepared views").
func NewLocalMember(shard *genome.Matrix) *LocalMember {
	return &LocalMember{shard: shard}
}

// Counts implements Provider. The returned slice is the member's cached count
// vector and must be treated as read-only.
func (m *LocalMember) Counts() ([]int64, error) {
	return m.shard.Columns().AlleleCounts(), nil
}

// CaseN implements Provider.
func (m *LocalMember) CaseN() (int64, error) {
	return int64(m.shard.N()), nil
}

// PairStats implements Provider.
func (m *LocalMember) PairStats(a, b int) (genome.PairStats, error) {
	if a < 0 || a >= m.shard.L() || b < 0 || b >= m.shard.L() {
		//gendpr:allow(secretflow): the pair indices echo the requester's own query (protocol metadata), not cohort data
		return genome.PairStats{}, fmt.Errorf("core: pair (%d,%d) out of range for %d SNPs", a, b, m.shard.L())
	}
	cols := m.shard.Columns()
	counts := cols.AlleleCounts()
	return genome.PairStatsFromCounts(int64(m.shard.N()), counts[a], counts[b], cols.PairCount(a, b)), nil
}

// PairStatsBatch implements BatchPairProvider.
func (m *LocalMember) PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error) {
	out := make([]genome.PairStats, len(pairs))
	for i, p := range pairs {
		s, err := m.PairStats(p[0], p[1])
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// LRMatrix implements Provider.
func (m *LocalMember) LRMatrix(cols []int, caseFreq, refFreq []float64) (*lrtest.BitMatrix, error) {
	return BuildLRBitMatrix(m.shard, cols, caseFreq, refFreq)
}

// LRPattern implements Provider.
func (m *LocalMember) LRPattern(cols []int) (*lrtest.BitMatrix, error) {
	if err := checkPatternRequest(m.shard.L(), cols); err != nil {
		return nil, err
	}
	zero := make([]float64, len(cols))
	p, err := gatherLR(m.shard, cols, lrtest.LogRatios{Minor: zero, Major: zero})
	if err != nil {
		return nil, fmt.Errorf("core: build genotype pattern: %w", err)
	}
	return p, nil
}

// checkPatternRequest validates a pattern request's column list the way
// checkLRRequest validates a full Phase 3 broadcast: members distrust the
// leader symmetrically even when no frequencies travel.
func checkPatternRequest(l int, cols []int) error {
	seen := make(map[int]bool, len(cols))
	for _, c := range cols {
		if c < 0 || c >= l {
			//gendpr:allow(secretflow): the column index echoes the requester's own query (protocol metadata), not cohort data
			return fmt.Errorf("core: column %d out of range for %d SNPs", c, l)
		}
		if seen[c] {
			//gendpr:allow(secretflow): the column index echoes the requester's own query (protocol metadata), not cohort data
			return fmt.Errorf("core: duplicate column %d in pattern request", c)
		}
		seen[c] = true
	}
	return nil
}

// checkLRRequest validates the leader's Phase 3 broadcast against a shard of
// l SNPs. Members distrust the leader symmetrically: out-of-range or
// duplicate columns and non-finite or out-of-range frequencies are rejected
// before any local genotype is touched.
func checkLRRequest(l int, cols []int, caseFreq, refFreq []float64) (lrtest.LogRatios, error) {
	if len(cols) != len(caseFreq) || len(cols) != len(refFreq) {
		return lrtest.LogRatios{}, fmt.Errorf("core: %d columns vs %d/%d frequencies", len(cols), len(caseFreq), len(refFreq))
	}
	if err := checkPatternRequest(l, cols); err != nil {
		return lrtest.LogRatios{}, err
	}
	if err := validateFrequencies(caseFreq, len(cols)); err != nil {
		return lrtest.LogRatios{}, fmt.Errorf("core: case frequencies: %w", err)
	}
	if err := validateFrequencies(refFreq, len(cols)); err != nil {
		return lrtest.LogRatios{}, fmt.Errorf("core: reference frequencies: %w", err)
	}
	ratios, err := lrtest.NewLogRatios(caseFreq, refFreq)
	if err != nil {
		return lrtest.LogRatios{}, fmt.Errorf("core: log ratios: %w", err)
	}
	return ratios, nil
}

// BuildLRBitMatrix is the member-side Phase 3 computation: restrict the
// local genotypes to the broadcast SNP columns and fill in Equation 1
// contributions using the pooled frequency vectors, stored as one bit per
// cell plus two representatives per column gathered from the matrix's
// column-major view.
func BuildLRBitMatrix(g *genome.Matrix, cols []int, caseFreq, refFreq []float64) (*lrtest.BitMatrix, error) {
	ratios, err := checkLRRequest(g.L(), cols, caseFreq, refFreq)
	if err != nil {
		return nil, err
	}
	m, err := gatherLR(g, cols, ratios)
	if err != nil {
		return nil, fmt.Errorf("core: build LR matrix: %w", err)
	}
	return m, nil
}

// gatherLR builds g's bit-packed LR-matrix over cols. Column j of a BitMatrix
// and column cols[j] of g's column-major view are the same (N+63)/64 words,
// so the matrix is a copy of whole columns — bit-identical to
// lrtest.BuildBit(g.SelectColumns(cols), ratios), which re-derives the same
// layout cell by cell and stays as the test reference.
func gatherLR(g *genome.Matrix, cols []int, ratios lrtest.LogRatios) (*lrtest.BitMatrix, error) {
	words, err := g.Columns().Gather(cols)
	if err != nil {
		return nil, err
	}
	return lrtest.BitFromColumnWords(g.N(), words, ratios)
}

// pairKey packs a column pair into one map key: an 8-byte key hashes and
// compares in registers where the [2]int form pays a 16-byte hash plus
// memequal per probe. Column indices are non-negative and far below 2³², so
// the packing is lossless.
func pairKey(a, b int) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// checkPairStats is the leader's check of one member's statistics for the
// pair (a, b) before they are used: the payload's own invariants, then, when
// the member's Phase-1 summary is known (counts non-nil), its marginals
// against that summary — a marginal that contradicts the member's own counts
// is a Byzantine contribution no single-payload invariant can catch.
func checkPairStats(s genome.PairStats, a, b int, counts []int64, caseN int64) error {
	if err := validatePairStats(s); err != nil {
		//gendpr:allow(secretflow): the pair indices echo the requester's own query (protocol metadata), not cohort data
		return fmt.Errorf("pair (%d,%d): %w", a, b, err)
	}
	if counts == nil {
		return nil
	}
	return validatePairConsistency(s, a, b, counts, caseN)
}

// cachedProvider memoizes member responses so that, as the paper describes,
// each GDO computes and transmits each intermediate result once even when
// the leader evaluates many collusion combinations over it. It is safe for
// concurrent use: the assessment driver queries members, and evaluates
// Phase 3's combinations, concurrently. A run's own wrapper serves summaries
// and patterns; its pairs go to the run's pair table (pairTable). The pair
// memo serves the resilient runner's outer wrapper, which replays survivor
// data across restarts.
type cachedProvider struct {
	inner Provider

	mu     sync.Mutex
	counts []int64
	caseN  int64
	loaded bool
	pairs  map[uint64]genome.PairStats

	// Pattern cache: a genotype bit-pattern depends only on the column list,
	// and Phase 3 asks for exactly one column list per assessment, so a single
	// slot keyed by column equality suffices. Guarded by patMu, not mu: the
	// fetch can be a wide-area round trip and must not block the pair-cache
	// fast path.
	patMu   sync.Mutex
	patCols []int
	pattern *lrtest.BitMatrix
}

var _ BatchPairProvider = (*cachedProvider)(nil)

func newCachedProvider(p Provider) *cachedProvider {
	return &cachedProvider{inner: p, pairs: make(map[uint64]genome.PairStats)}
}

// load fetches the summary statistics once; callers must hold c.mu.
func (c *cachedProvider) load() error {
	if c.loaded {
		return nil
	}
	counts, err := c.inner.Counts()
	if err != nil {
		return err
	}
	n, err := c.inner.CaseN()
	if err != nil {
		return err
	}
	c.counts, c.caseN, c.loaded = counts, n, true
	return nil
}

func (c *cachedProvider) Counts() ([]int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.load(); err != nil {
		return nil, err
	}
	return c.counts, nil
}

func (c *cachedProvider) CaseN() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.load(); err != nil {
		return 0, err
	}
	return c.caseN, nil
}

func (c *cachedProvider) PairStats(a, b int) (genome.PairStats, error) {
	key := pairKey(a, b)
	c.mu.Lock()
	if s, ok := c.pairs[key]; ok {
		c.mu.Unlock()
		return s, nil
	}
	c.mu.Unlock()
	s, err := c.inner.PairStats(a, b)
	if err != nil {
		return genome.PairStats{}, err
	}
	if err := c.checkPair(a, b, s); err != nil {
		return genome.PairStats{}, err
	}
	c.mu.Lock()
	c.pairs[key] = s
	c.mu.Unlock()
	return s, nil
}

// checkPair is checkPairStats against the member's cached summary, once one
// is loaded.
func (c *cachedProvider) checkPair(a, b int, s genome.PairStats) error {
	c.mu.Lock()
	loaded, counts, caseN := c.loaded, c.counts, c.caseN
	c.mu.Unlock()
	if !loaded {
		counts = nil
	}
	return checkPairStats(s, a, b, counts, caseN)
}

// Prefetch warms the pair cache with one batched request when the member
// supports batching, and falls back to nothing otherwise (single-pair
// fetches will fill the cache lazily).
func (c *cachedProvider) Prefetch(pairs [][2]int) error {
	batcher, ok := c.inner.(BatchPairProvider)
	if !ok {
		return nil
	}
	c.mu.Lock()
	missing := make([][2]int, 0, len(pairs))
	for _, p := range pairs {
		if _, ok := c.pairs[pairKey(p[0], p[1])]; !ok {
			missing = append(missing, p)
		}
	}
	c.mu.Unlock()
	if len(missing) == 0 {
		return nil
	}
	stats, err := batcher.PairStatsBatch(missing)
	if err != nil {
		return err
	}
	if len(stats) != len(missing) {
		return fmt.Errorf("core: batch returned %d entries for %d pairs", len(stats), len(missing))
	}
	for i, s := range stats {
		if err := c.checkPair(missing[i][0], missing[i][1], s); err != nil {
			return err
		}
	}
	c.mu.Lock()
	for i, p := range missing {
		c.pairs[pairKey(p[0], p[1])] = stats[i]
	}
	c.mu.Unlock()
	return nil
}

// PairStatsBatch implements BatchPairProvider by serving from the cache after
// a prefetch. Without it, stacking cached providers — the resilient driver
// wraps once so survivor data replays across restarts, then the assessment
// driver wraps again — would hide the inner provider's batching capability
// and silently downgrade the LD phase to one request per pair.
func (c *cachedProvider) PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error) {
	if err := c.Prefetch(pairs); err != nil {
		return nil, err
	}
	out := make([]genome.PairStats, len(pairs))
	for i, p := range pairs {
		s, err := c.PairStats(p[0], p[1])
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func (c *cachedProvider) LRMatrix(cols []int, caseFreq, refFreq []float64) (*lrtest.BitMatrix, error) {
	// LR matrices are combination-specific (the frequency vectors differ),
	// so they are not cached; each is requested exactly once per
	// combination anyway.
	return c.inner.LRMatrix(cols, caseFreq, refFreq)
}

// LRPattern implements Provider over the single-slot pattern cache.
// The mutex is held across the fetch deliberately: concurrent evaluation
// chains all want the same pattern, and single-flighting the round trip keeps
// the member's work at one pattern build per assessment.
func (c *cachedProvider) LRPattern(cols []int) (*lrtest.BitMatrix, error) {
	c.patMu.Lock()
	defer c.patMu.Unlock()
	if c.pattern != nil && intsEqual(c.patCols, cols) {
		return c.pattern, nil
	}
	pat, err := c.inner.LRPattern(cols)
	if err != nil {
		return nil, err
	}
	c.patCols = append([]int(nil), cols...)
	c.pattern = pat
	return pat, nil
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seedSummary primes the summary cache from a checkpoint, so a resumed run
// never re-contacts the member for Phase 1 inputs. Seeded data was validated
// before the checkpoint was written.
func (c *cachedProvider) seedSummary(counts []int64, caseN int64) {
	c.mu.Lock()
	c.counts, c.caseN, c.loaded = counts, caseN, true
	c.mu.Unlock()
}

// AuditSummary implements SummaryAuditor by forwarding through the cache to
// the wrapped provider — stacked cachedProviders recurse until a real auditor
// (or its absence) is found, so the capability shines through both wrapping
// layers just like batching and patterns do.
func (c *cachedProvider) AuditSummary() ([]int64, int64, error) {
	if a, ok := c.inner.(SummaryAuditor); ok {
		return a.AuditSummary()
	}
	return nil, 0, errAuditUnsupported
}

// rejoin re-establishes an excluded member's session and challenges it to
// stand by the summary it reported before the exclusion. A digest mismatch is
// equivocation: the member changed its story across the gap, and re-admitting
// it would let it fork the assessment.
func (c *cachedProvider) rejoin() error {
	rj, ok := c.inner.(RejoinableProvider)
	if !ok {
		return errRejoinUnsupported
	}
	if err := rj.Rejoin(); err != nil {
		return err
	}
	fresh, caseN, err := c.AuditSummary()
	if errors.Is(err, errAuditUnsupported) {
		return nil
	}
	if err != nil {
		return err
	}
	c.mu.Lock()
	loaded, counts, prevN := c.loaded, c.counts, c.caseN
	c.mu.Unlock()
	if !loaded {
		// The member dropped before its summary was cached; the next attempt
		// fetches and validates it from scratch.
		return nil
	}
	prior := DigestSummary(counts, prevN)
	observed := DigestSummary(fresh, caseN)
	if prior != observed {
		return &EquivocationError{Phase: PhaseSummary, Query: "summary", Prior: prior[:], Observed: observed[:]}
	}
	return nil
}

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

// cachedProvider is one member as an assessment sees it. RunAssessment wraps
// each member once and every attempt of a degraded run shares the wrapper, so
// the member computes and sends its summary and its Phase-3 pattern once,
// however many combinations read them; the summary is also what the rejoin
// audit holds a returning member to. Pair statistics are not kept here: each
// attempt's pair table (pairTable) is the only pair store, filled through
// inner. cachedProvider is not a Provider, so it cannot be nested in itself.
// It is safe for concurrent use.
type cachedProvider struct {
	inner Provider

	mu     sync.Mutex
	counts []int64
	caseN  int64
	loaded bool

	// Pattern cache: a genotype bit-pattern depends only on the column list,
	// and Phase 3 asks for exactly one column list per attempt, so a single
	// slot keyed by column equality suffices. Guarded by patMu, not mu: the
	// fetch can be a wide-area round trip and must not block the summary.
	patMu   sync.Mutex
	patCols []int
	pattern *lrtest.BitMatrix
}

func newCachedProvider(p Provider) *cachedProvider {
	return &cachedProvider{inner: p}
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

// LRPattern is the member's pattern over cols, from the single-slot cache.
// The mutex is held across the fetch deliberately: concurrent evaluation
// chains all want the same pattern, and single-flighting the round trip keeps
// the member's work at one pattern build per column list.
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

// AuditSummary bypasses the summary cache: it asks the wrapped provider, when
// it is a SummaryAuditor, to answer the summary query again.
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

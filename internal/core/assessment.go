package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gendpr/internal/combin"
	"gendpr/internal/enclave"
	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
)

// ErrNoMembers is returned when an assessment is started without members.
var ErrNoMembers = errors.New("core: assessment needs at least one member")

const (
	bytesPerCount    = 8
	bytesPerPairStat = 48
	lrMatrixOverhead = 16
)

// RunAssessment executes the GenDPR verification pipeline: Phase 1 (MAF),
// Phase 2 (LD), Phase 3 (LR-test), with per-phase intersection across the
// collusion combinations the policy demands. It is the single protocol
// implementation behind both the in-process runner and the networked
// middleware: the members parameter abstracts where intermediate results
// come from.
//
// Member-side computations (count vectors, pair statistics, LR-matrices) are
// requested concurrently, mirroring the real deployment where each GDO works
// on its own machine — the reason the paper's running time drops as the
// federation grows.
//
// When the policy tolerates colluders, the full-membership evaluation is
// always included alongside the C(G, G−f) honest subsets, so the released
// set is safe both for the actual all-member release and for every residual
// view colluders could isolate.
//
// leaderEnclave, when non-nil, accounts the leader-side protected memory the
// protocol intermediates occupy (count vectors, pair statistics, LR-matrices)
// and is the source of Table 3's memory column.
func RunAssessment(members []Provider, reference *genome.Matrix, cfg Config, policy CollusionPolicy, leaderEnclave *enclave.Enclave) (*Report, error) {
	return RunAssessmentWithOptions(members, reference, cfg, policy, leaderEnclave, AssessmentOptions{})
}

// RunAssessmentWithOptions is RunAssessment with cancellation and checkpoint
// durability. With the zero options it behaves exactly like RunAssessment.
// When opts.Checkpoints is set, phase boundaries are persisted to the store,
// and a compatible existing checkpoint (same fingerprint: configuration,
// policy, provider name set, reference dimensions) seeds the run — completed
// phases replay from the snapshot instead of re-querying members, and
// Report.Resumed records that it happened.
func RunAssessmentWithOptions(members []Provider, reference *genome.Matrix, cfg Config, policy CollusionPolicy, leaderEnclave *enclave.Enclave, opts AssessmentOptions) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := len(members)
	if g == 0 {
		return nil, ErrNoMembers
	}
	if reference == nil || reference.N() == 0 {
		return nil, errors.New("core: assessment needs a non-empty reference panel")
	}
	if err := policy.Validate(g); err != nil {
		return nil, err
	}
	subsets, err := evaluationSubsets(g, policy)
	if err != nil {
		return nil, err
	}

	run := &assessmentRun{
		ctx:     opts.Context,
		cfg:     cfg,
		ref:     reference,
		acct:    leaderEnclave,
		members: make([]*cachedProvider, g),
		report:  &Report{Combinations: len(subsets)},
		pool:    defaultWorkPool(),
	}
	for i, m := range members {
		run.members[i] = newCachedProvider(m)
	}
	// Count vectors stay accounted for the whole run and have no release
	// point of their own, and a failed run leaves whatever its phase held; on
	// a long-lived leader enclave none of it may outlive the run, whichever
	// way the run ends.
	defer run.releaseHeld()

	plan, err := buildLatticePlan(g, policy, run.pool.size())
	if err != nil {
		return nil, err
	}
	if plan.count != len(subsets) {
		return nil, fmt.Errorf("core: lattice plan covers %d subsets, want %d", plan.count, len(subsets))
	}

	if opts.Checkpoints != nil {
		if len(opts.ProviderNames) != g {
			return nil, fmt.Errorf("core: %d provider names for %d members (checkpointing needs stable identities)", len(opts.ProviderNames), g)
		}
		fp := Fingerprint(cfg, policy, opts.ProviderNames, reference.N(), reference.L())
		run.cs, err = newCkState(opts.Checkpoints, opts.ProviderNames, fp, g, policy)
		if err != nil {
			return nil, err
		}
		run.cs.retain = opts.RetainCheckpoints
		run.cs.adoptBlames(opts.blamed)
	}
	run.audit = opts.auditSummaries

	if err := run.ctxErr(); err != nil {
		return nil, err
	}
	if err := run.collectSummaries(); err != nil {
		return nil, err
	}
	lPrime, perMAF, err := run.phase1MAF(plan)
	if err != nil {
		return nil, err
	}
	lDouble, perLD, err := run.phase2LD(plan, lPrime)
	if err != nil {
		return nil, err
	}
	run.releasePairs()
	safe, perSafe, power, err := run.phase3LR(plan, lDouble)
	if err != nil {
		return nil, err
	}
	// A cancellation that raced the last phase must not yield a report: the
	// caller treats a returned report as a completed (and checkpoint-cleared)
	// run, and the failover harness relies on kill-at-last-save runs
	// reporting cancellation deterministically.
	if err := run.ctxErr(); err != nil {
		return nil, err
	}

	run.report.Selection = Selection{AfterMAF: lPrime, AfterLD: lDouble, Safe: safe, Power: power}
	run.report.PerCombination = make([]Selection, len(subsets))
	for c := range subsets {
		run.report.PerCombination[c] = Selection{AfterMAF: perMAF[c], AfterLD: perLD[c], Safe: perSafe[c]}
	}
	if run.acct != nil {
		run.report.PeakEnclaveBytes = run.acct.MemoryPeak()
	}
	run.report.PeakLRMatrixBytes = run.lrPeak
	run.report.Resumed = run.resumed
	run.report.Blamed = run.cs.allBlames()
	run.report.CorruptionRecovered = run.cs.recoveredCorruption()
	run.cs.finish()
	return run.report, nil
}

// evaluationSubsets enumerates the member subsets to evaluate: always the
// full membership first, then every honest combination the policy requires.
func evaluationSubsets(g int, policy CollusionPolicy) ([][]int, error) {
	full := make([]int, g)
	for i := range full {
		full[i] = i
	}
	subsets := [][]int{full}
	switch {
	case policy.Conservative:
		more, err := combin.ConservativeSubsets(g)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		subsets = append(subsets, more...)
	case policy.F > 0:
		more, err := combin.HonestSubsets(g, policy.F)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		subsets = append(subsets, more...)
	}
	return subsets, nil
}

// assessmentRun carries the leader-side state across phases.
type assessmentRun struct {
	ctx     context.Context
	cfg     Config
	ref     *genome.Matrix
	acct    *enclave.Enclave
	held    atomic.Int64 // bytes accounted on acct and not yet freed
	members []*cachedProvider
	report  *Report
	pool    *workPool
	cs      *ckState
	resumed bool
	// audit challenges auditable members to reproduce their checkpointed
	// summaries on resume (the equivocation probe of Byzantine-aware runs).
	audit bool

	counts    [][]int64
	caseNs    []int64
	refCounts []int64
	refCols   *genome.ColumnBits
	refN      int64

	timingMu sync.Mutex
	pairMu   sync.Mutex
	// refPairs holds the reference panel's statistics for every pair Phase 2
	// has touched (guarded by pairMu): the predictor computes them and the
	// pooled functions add the members' contributions to the same values.
	// It lives exactly as long as Phase 2 (releasePairs).
	refPairs map[uint64]genome.PairStats

	lrMu    sync.Mutex
	lrBytes int64
	lrPeak  int64
}

// markResumed records that at least one phase replayed from a checkpoint.
// Locked: Phase 3's chains replay combinations concurrently.
func (r *assessmentRun) markResumed() {
	r.timingMu.Lock()
	r.resumed = true
	r.timingMu.Unlock()
}

// ctxErr reports cancellation; a run without a context never cancels.
// Checked at phase boundaries — in-flight member fetches are bounded by the
// transport layer's own context plumbing, so boundary checks keep the core
// loop allocation-free on the uncancelled path.
func (r *assessmentRun) ctxErr() error {
	if r.ctx == nil {
		return nil
	}
	return r.ctx.Err()
}

// addTiming accumulates wall time into one breakdown bucket; the accessor is
// locked because Phase 3's chains update buckets concurrently (so a bucket
// is a sum over workers and can exceed the wall time).
func (r *assessmentRun) addTiming(bucket *time.Duration, start time.Time) {
	elapsed := time.Since(start)
	r.timingMu.Lock()
	*bucket += elapsed
	r.timingMu.Unlock()
}

func (r *assessmentRun) alloc(n int64) error {
	if r.acct == nil {
		return nil
	}
	if err := r.acct.Alloc(n); err != nil {
		return err
	}
	r.held.Add(n)
	return nil
}

func (r *assessmentRun) free(n int64) {
	if r.acct != nil {
		r.acct.Free(n)
		r.held.Add(-n)
	}
}

// releaseHeld returns every byte the run still has accounted to the enclave.
func (r *assessmentRun) releaseHeld() {
	r.free(r.held.Load())
}

// allocLR accounts protected memory that holds LR-matrices, tracking the
// Phase 3 component of the enclave footprint separately so the report can
// attribute it (Report.PeakLRMatrixBytes).
func (r *assessmentRun) allocLR(n int64) error {
	if err := r.alloc(n); err != nil {
		return err
	}
	r.lrMu.Lock()
	r.lrBytes += n
	if r.lrBytes > r.lrPeak {
		r.lrPeak = r.lrBytes
	}
	r.lrMu.Unlock()
	return nil
}

func (r *assessmentRun) freeLR(n int64) {
	r.free(n)
	r.lrMu.Lock()
	r.lrBytes -= n
	r.lrMu.Unlock()
}

// refPair returns the reference panel's statistics for a pair. The first
// touch computes them — the single counts are known from Phase 1, so that is
// one PairCount column pass — and accounts the pair's leader-side footprint
// once: this entry plus one per member's pair cache.
func (r *assessmentRun) refPair(a, b int) (genome.PairStats, error) {
	key := pairKey(a, b)
	r.pairMu.Lock()
	defer r.pairMu.Unlock()
	if s, ok := r.refPairs[key]; ok {
		return s, nil
	}
	if err := r.alloc(bytesPerPairStat * int64(len(r.members)+1)); err != nil {
		return genome.PairStats{}, err
	}
	s := genome.PairStatsFromCounts(r.refN, r.refCounts[a], r.refCounts[b], r.refCols.PairCount(a, b))
	r.refPairs[key] = s
	return s, nil
}

// releasePairs ends the pair statistics' life at the Phase-2 boundary, once
// recordLD has taken L″: Phase 3 never reads a pair, so the reference memo
// and this run's member pair caches are dropped and the bytes refPair
// accounted for them are returned. The resilient runner's outer caches,
// which replay survivor data across restarts, keep their pairs.
func (r *assessmentRun) releasePairs() {
	r.pairMu.Lock()
	n := int64(len(r.refPairs))
	r.refPairs = nil
	r.pairMu.Unlock()
	r.free(n * bytesPerPairStat * int64(len(r.members)+1))
	for _, m := range r.members {
		m.dropPairs()
	}
}

// predictPair is the run's PairPredictor: the LD decision taken on the
// reference panel alone. A pair it cannot account is predicted independent;
// the pooled function meets the same error and reports it.
func (r *assessmentRun) predictPair(a, b int) bool {
	s, err := r.refPair(a, b)
	if err != nil {
		return false
	}
	dependent, err := ldDependent(s, r.cfg.LDCutoff)
	return err == nil && dependent
}

// collectSummaries gathers each member's count vector and population size —
// the pre-processing summary-statistics step of Section 5.2. Members compute
// in parallel on their own premises.
func (r *assessmentRun) collectSummaries() error {
	start := time.Now()
	defer r.addTiming(&r.report.Timings.DataAggregation, start)

	l := r.ref.L()
	g := len(r.members)

	if counts, caseNs, ok := r.cs.seededSummaries(); ok {
		// Resume: the checkpoint holds validated summaries for every
		// provider — prime the caches and skip the federation round trip.
		// Byzantine-aware runs first challenge each auditable member to
		// reproduce the summary it reported to the previous leader: an
		// honest member is deterministic over its fixed cohort, so a digest
		// mismatch is equivocation, not drift.
		if err := r.auditSeededSummaries(counts, caseNs); err != nil {
			return err
		}
		r.counts = counts
		r.caseNs = caseNs
		seedSummaryCaches(r.members, counts, caseNs)
		r.resumed = true
	} else {
		r.counts = make([][]int64, g)
		r.caseNs = make([]int64, g)
		errs := make([]error, g)

		var wg sync.WaitGroup
		for i, m := range r.members {
			i, m := i, m
			r.pool.Go(&wg, func() {
				counts, err := m.Counts()
				if err != nil {
					errs[i] = memberErr(i, PhaseSummary, "counts: %w", err)
					return
				}
				n, err := m.CaseN()
				if err != nil {
					errs[i] = memberErr(i, PhaseSummary, "population size: %w", err)
					return
				}
				r.counts[i] = counts
				r.caseNs[i] = n
			})
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}

	// Leader-side validation: malformed or impossible contributions are the
	// tampering the trusted module must detect. Invalid payloads are never
	// retried — a plain run fails outright, a Byzantine-aware resilient run
	// quarantines the member with a blame record and restarts over survivors.
	for i := range r.members {
		if err := validateCounts(r.counts[i], r.caseNs[i], l); err != nil {
			return memberErr(i, PhaseSummary, "%w", err)
		}
		if err := r.alloc(int64(l) * bytesPerCount); err != nil {
			return err
		}
	}
	r.cs.recordSummaries(r.counts, r.caseNs)
	// The reference panel is queried for thousands of pair counts in Phase 2;
	// its column-major view (built once per panel, not per run) turns each
	// into a stride-1 AND+popcount.
	r.refCols = r.ref.Columns()
	r.refCounts = r.refCols.AlleleCounts()
	r.refN = int64(r.ref.N())
	r.refPairs = make(map[uint64]genome.PairStats)
	return nil
}

// auditSeededSummaries is the resume-time equivocation probe: each member
// whose provider chain can bypass its caches (SummaryAuditor) re-answers the
// summary query, and the reply's digest must match the checkpointed one.
// Members inside the leader's trust domain (LocalMember shards) have no
// auditor and are skipped.
func (r *assessmentRun) auditSeededSummaries(counts [][]int64, caseNs []int64) error {
	if !r.audit || len(counts) != len(r.members) || len(caseNs) != len(r.members) {
		return nil
	}
	for i, m := range r.members {
		fresh, caseN, err := m.AuditSummary()
		if errors.Is(err, errAuditUnsupported) {
			continue
		}
		if err != nil {
			return memberErr(i, PhaseSummary, "summary audit: %w", err)
		}
		prior := DigestSummary(counts[i], caseNs[i])
		observed := DigestSummary(fresh, caseN)
		if prior != observed {
			return memberErr(i, PhaseSummary, "resume audit: %w", &EquivocationError{
				Phase: PhaseSummary, Query: "summary", Prior: prior[:], Observed: observed[:],
			})
		}
	}
	return nil
}

// subsetCounts aggregates case counts and population size over one
// combination of members (leader-enclave aggregation, lines 11–19).
func (r *assessmentRun) subsetCounts(subset []int) ([]int64, int64) {
	start := time.Now()
	defer r.addTiming(&r.report.Timings.DataAggregation, start)

	sum := make([]int64, len(r.refCounts))
	var n int64
	for _, i := range subset {
		for l, c := range r.counts[i] {
			sum[l] += c
		}
		n += r.caseNs[i]
	}
	return sum, n
}

func (r *assessmentRun) phase1MAF(plan *latticePlan) ([]int, [][]int, error) {
	if err := r.ctxErr(); err != nil {
		return nil, nil, err
	}
	if lPrime, perMAF, ok := r.cs.seededMAF(); ok && len(perMAF) == plan.count {
		r.resumed = true
		if err := r.cs.recordMAF(lPrime, perMAF, false); err != nil {
			return nil, nil, err
		}
		return lPrime, perMAF, nil
	}
	per := make([][]int, plan.count)
	err := walkInOrder(plan.chains, func(ch *latticeChain) error {
		// The chain's running aggregates: a revolving-door step updates them
		// by one member's delta — exact, because counts are integers.
		var counts []int64
		var n int64
		return ch.walk(func(pos, slot int, subset []int, rem, add int) error {
			if pos == 0 {
				counts, n = r.subsetCounts(subset)
			} else {
				aggStart := time.Now()
				for l, c := range r.counts[add] {
					counts[l] += c - r.counts[rem][l]
				}
				n += r.caseNs[add] - r.caseNs[rem]
				r.addTiming(&r.report.Timings.DataAggregation, aggStart)
			}
			start := time.Now()
			lPrime, err := MAFPhase(counts, n, r.refCounts, r.refN, r.cfg.MAFCutoff)
			r.addTiming(&r.report.Timings.Indexing, start)
			if err != nil {
				return err
			}
			per[slot] = lPrime
			return nil
		})
	})
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	intersected := IntersectSorted(per...)
	r.addTiming(&r.report.Timings.Indexing, start)
	if err := r.cs.recordMAF(intersected, per, true); err != nil {
		return nil, nil, err
	}
	return intersected, per, nil
}

// prefetchPairs has each member of the subset warm its pair cache with the
// given pairs: one batched request per member, in parallel, for the pairs
// that member's cache does not hold yet (cachedProvider.Prefetch).
func (r *assessmentRun) prefetchPairs(subset []int, pairs [][2]int) error {
	if len(pairs) == 0 {
		return nil
	}
	errs := make([]error, len(subset))
	var wg sync.WaitGroup
	for slot, i := range subset {
		slot, i := slot, i
		r.pool.Go(&wg, func() {
			if err := r.members[i].Prefetch(pairs); err != nil {
				errs[slot] = memberErr(i, PhaseLD, "pair prefetch: %w", err)
			}
		})
	}
	wg.Wait()
	return errors.Join(errs...)
}

// subsetPairStats returns the chain-free pooled pair-statistics function for
// one combination: member contributions (fetched in parallel) plus the
// reference panel's (refPair), with nothing cached leader-side beyond that
// and the providers' own pair caches. Single-combination chains use it — they have no later
// positions to share a decomposition with, so the chain cache would only add
// leader memory.
func (r *assessmentRun) subsetPairStats(subset []int) PairStatsFunc {
	return func(a, b int) (genome.PairStats, error) {
		pooled, err := r.refPair(a, b)
		if err != nil {
			return genome.PairStats{}, err
		}

		// Fast path: after the prefetch, almost every pair the LD scan asks
		// for is in every member's cache — aggregate synchronously instead of
		// dispatching a goroutine per member.
		cached := make([]genome.PairStats, len(subset))
		hit := 0
		for slot, i := range subset {
			s, ok := r.members[i].cachedPair(a, b)
			if !ok {
				break
			}
			cached[slot] = s
			hit++
		}
		if hit == len(subset) {
			for _, s := range cached {
				pooled = pooled.Add(s)
			}
			return pooled, nil
		}

		parts := make([]genome.PairStats, len(subset))
		errs := make([]error, len(subset))
		var wg sync.WaitGroup
		for slot, i := range subset {
			slot, i := slot, i
			r.pool.Go(&wg, func() {
				s, err := r.members[i].PairStats(a, b)
				if err != nil {
					errs[slot] = memberErr(i, PhaseLD, "pair stats: %w", err)
					return
				}
				parts[slot] = s
			})
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return genome.PairStats{}, err
		}
		for _, s := range parts {
			pooled = pooled.Add(s)
		}
		return pooled, nil
	}
}

func (r *assessmentRun) phase2LD(plan *latticePlan, lPrime []int) ([]int, [][]int, error) {
	if err := r.ctxErr(); err != nil {
		return nil, nil, err
	}
	if lDouble, perLD, ok := r.cs.seededLD(); ok && len(perLD) == plan.count {
		// Resume: Phase 2 outputs come from the checkpoint and Phase 3 needs
		// nothing else from it — no pair is fetched or computed.
		r.resumed = true
		if err := r.cs.recordLD(lDouble, perLD, false); err != nil {
			return nil, nil, err
		}
		return lDouble, perLD, nil
	}

	// The association ranking used by getMostRanked is study-wide: the
	// paper's Algorithm 1 ranks by "p-value on chi^2 of study s", not per
	// combination. Combinations still test dependence on their own pooled
	// pair statistics; only the tie-break between two dependent SNPs uses
	// the canonical ranking, which keeps the per-combination survivor
	// chains aligned.
	fullCounts, fullN := r.subsetCounts(plan.chains[0].head)
	start := time.Now()
	pvals, err := AssociationPValues(fullCounts, fullN, r.refCounts, r.refN, r.cfg.PaperChiSquare)
	r.addTiming(&r.report.Timings.Indexing, start)
	if err != nil {
		return nil, nil, err
	}

	// The reference panel and the ranking are both in hand, so the scan can
	// be run ahead on the panel alone: its path is fetched from every member
	// in one round trip and shared by all combinations, which then fetch only
	// where their exact statistics lead them off it.
	pathBytes := int64(len(lPrime)) * bytesPerCount
	if err := r.alloc(pathBytes); err != nil {
		return nil, nil, err
	}
	start = time.Now()
	path, pairs := predictLDPath(lPrime, r.predictPair, pvals)
	r.addTiming(&r.report.Timings.LD, start)
	start = time.Now()
	err = r.prefetchPairs(plan.chains[0].head, pairs)
	r.addTiming(&r.report.Timings.DataAggregation, start)
	if err != nil {
		return nil, nil, err
	}

	per := make([][]int, plan.count)
	err = walkInOrder(plan.chains, func(ch *latticeChain) error {
		// The chain-local pooling cache survives across the chain's
		// combinations: each Gray step adds at most one member's
		// contributions to the decompositions already on hand. A chain with
		// a single position has nothing to share across steps, so it runs
		// the chain-free path and carries no extra leader memory — this
		// keeps the no-collusion footprint identical to the pre-lattice
		// protocol.
		var cache *chainPairCache
		if ch.length() > 1 {
			cache = newChainPairCache(r)
			defer cache.release()
		}
		return ch.walk(func(pos, slot int, subset []int, rem, add int) error {
			pooled := r.subsetPairStats(subset)
			if cache != nil {
				pooled = cache.pooledFunc(subset)
			}
			prefetch := func(pairs [][2]int) error { return r.prefetchPairs(subset, pairs) }
			// The scan works on its own copy of the path.
			if err := r.alloc(pathBytes); err != nil {
				return err
			}
			defer r.free(pathBytes)
			start := time.Now()
			lDouble, err := LDPhaseBatch(lPrime, pooled, r.predictPair, prefetch, path, pvals, r.cfg.LDCutoff)
			r.addTiming(&r.report.Timings.LD, start)
			if err != nil {
				return err
			}
			per[slot] = lDouble
			return nil
		})
	})
	if err != nil {
		return nil, nil, err
	}
	start = time.Now()
	intersected := IntersectSorted(per...)
	r.addTiming(&r.report.Timings.LD, start)
	if err := r.cs.recordLD(intersected, per, true); err != nil {
		return nil, nil, err
	}
	return intersected, per, nil
}

// bitLRBytes is the protected-memory footprint of one bit-packed LR-matrix:
// one bit per cell packed into 64-bit words per column, two float64
// representatives per column, plus the fixed header.
func bitLRBytes(rows, cols int64) int64 {
	return lrMatrixOverhead + 8*((rows+63)/64)*cols + 16*cols
}

func (r *assessmentRun) phase3LR(plan *latticePlan, lDouble []int) ([]int, [][]int, float64, error) {
	if err := r.ctxErr(); err != nil {
		return nil, nil, 0, err
	}
	per := make([][]int, plan.count)
	var fullPower float64
	// The admission order is derived once, from the full-membership
	// evaluation (slot 0), and shared with every collusion combination;
	// see LRPhaseBitOrdered.
	var order []int

	// The reference panel's genotype bit-pattern is combination-independent:
	// refFreq depends only on the reference counts, so across collusion
	// combinations only the per-column log ratios change, never which cells
	// are minor alleles. The full-membership evaluation (always first,
	// sequentially) builds the pattern once; every other combination reskins
	// it with its own ratios, sharing the read-only cell bits.
	var refPattern *lrtest.BitMatrix
	cols := int64(len(lDouble))
	reskinBytes := 16 * cols // a reskin allocates only two representatives per column

	// The incremental path needs every member to ship genotype patterns;
	// a single provider without the capability drops the whole run to the
	// per-combination legacy path (mixed-mode merging would reintroduce the
	// rebuild it exists to avoid).
	patterned := true
	for _, m := range r.members {
		if !m.supportsPatterns() {
			patterned = false
			break
		}
	}

	// The reference pattern lives for the whole phase.
	refBytes := bitLRBytes(r.refN, cols)
	if err := r.allocLR(refBytes); err != nil {
		return nil, nil, 0, err
	}
	defer r.freeLR(refBytes)

	if patterned {
		if err := r.phase3Lattice(plan, lDouble, per, &order, &refPattern, &fullPower, reskinBytes); err != nil {
			return nil, nil, 0, err
		}
	} else {
		if err := r.phase3Legacy(plan, lDouble, per, &order, &refPattern, &fullPower, reskinBytes); err != nil {
			return nil, nil, 0, err
		}
	}

	start := time.Now()
	intersected := IntersectSorted(per...)
	r.addTiming(&r.report.Timings.LRTest, start)
	return intersected, per, fullPower, nil
}

// phase3Legacy is the per-combination Phase 3: every subset fetches its
// members' frequency-skinned LR-matrices and merges them from scratch. It
// remains the path for providers that cannot ship genotype patterns, and the
// equivalence baseline the lattice path is tested against.
func (r *assessmentRun) phase3Legacy(plan *latticePlan, lDouble []int, per [][]int, order *[]int, refPattern **lrtest.BitMatrix, fullPower *float64, reskinBytes int64) error {
	cols := int64(len(lDouble))
	evalSubset := func(c int, subset []int) error {
		if err := r.ctxErr(); err != nil {
			return err
		}
		var comboNames []string
		if r.cs != nil {
			comboNames = subsetNames(r.cs.names, subset)
		}
		if rec, ok := r.cs.seededCombination(comboNames); ok && c > 0 {
			// Replay a completed collusion combination from the checkpoint;
			// no member contact, no matrix rebuild.
			r.markResumed()
			per[c] = rec.Safe
			return r.cs.recordCombination(comboNames, rec.Safe, rec.Power, nil, false)
		}

		counts, n := r.subsetCounts(subset)

		start := time.Now()
		caseFreq := Frequencies(counts, n, lDouble)
		refFreq := Frequencies(r.refCounts, r.refN, lDouble)
		r.addTiming(&r.report.Timings.Indexing, start)

		if rec, ok := r.cs.seededCombination(comboNames); ok && c == 0 && len(rec.Order) > 0 {
			// The full-membership combination anchors every other one: its
			// canonical admission order is checkpointed directly (the merged
			// per-individual matrix never is). Reuse the order; if the
			// reference pattern cannot be rebuilt, fall through to a full
			// recompute.
			refLR, berr := BuildLRBitMatrix(r.ref, lDouble, caseFreq, refFreq)
			if berr == nil {
				*refPattern = refLR
				*order = append([]int(nil), rec.Order...)
				r.markResumed()
				per[0] = rec.Safe
				*fullPower = rec.Power
				return r.cs.recordCombination(comboNames, rec.Safe, rec.Power, rec.Order, false)
			}
		}

		var rows int64
		for _, i := range subset {
			rows += r.caseNs[i]
		}
		lrBytes := bitLRBytes(rows, cols)
		if c > 0 {
			lrBytes += reskinBytes
		}
		if err := r.allocLR(lrBytes); err != nil {
			return err
		}
		defer r.freeLR(lrBytes)

		// Collect the members' local LR-matrices: each member builds its
		// own matrix on its own machine, concurrently.
		start = time.Now()
		parts := make([]*lrtest.BitMatrix, len(subset))
		errs := make([]error, len(subset))
		var wg sync.WaitGroup
		for slot, i := range subset {
			slot, i := slot, i
			r.pool.Go(&wg, func() {
				lr, err := r.members[i].LRMatrix(lDouble, caseFreq, refFreq)
				if err != nil {
					errs[slot] = memberErr(i, PhaseLR, "LR-matrix: %w", err)
					return
				}
				if err := validateLRMatrix(lr, r.caseNs[i], len(lDouble)); err != nil {
					errs[slot] = memberErr(i, PhaseLR, "%w", err)
					return
				}
				parts[slot] = lr
			})
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		merged, err := lrtest.MergeBits(parts...)
		r.addTiming(&r.report.Timings.DataAggregation, start)
		if err != nil {
			return fmt.Errorf("core: merge LR-matrices: %w", err)
		}

		// Obtain the reference matrix — built once, reskinned after — and
		// run the empirical search.
		start = time.Now()
		var refLR *lrtest.BitMatrix
		if c == 0 {
			refLR, err = BuildLRBitMatrix(r.ref, lDouble, caseFreq, refFreq)
			if err != nil {
				return err
			}
			*refPattern = refLR
		} else {
			ratios, rerr := lrtest.NewLogRatios(caseFreq, refFreq)
			if rerr != nil {
				return fmt.Errorf("core: log ratios: %w", rerr)
			}
			refLR, err = (*refPattern).Reskin(ratios)
			if err != nil {
				return err
			}
		}
		if c == 0 {
			*order = lrtest.DiscriminabilityOrderBit(merged, refLR)
		}
		safe, power, err := LRPhaseBitOrdered(lDouble, merged, refLR, r.cfg.LR, *order)
		r.addTiming(&r.report.Timings.LRTest, start)
		if err != nil {
			return err
		}
		per[c] = safe
		if c == 0 {
			*fullPower = power
		}
		var orderCkpt []int
		if c == 0 && r.cs != nil {
			// Only the full-membership combination persists its admission
			// order: that derived ranking is all a resuming leader needs to
			// anchor the other combinations.
			orderCkpt = append([]int(nil), *order...)
		}
		return r.cs.recordCombination(comboNames, safe, power, orderCkpt, true)
	}

	// The full-membership subset runs first (it defines the canonical
	// order); the collusion chains then run on the pool, as in phase3Lattice.
	if err := evalSubset(0, plan.chains[0].head); err != nil {
		return err
	}
	chains := plan.chains[1:]
	return r.pool.RunStealing(len(chains), r.pool.size(), func(i int) error {
		return chains[i].walk(func(pos, slot int, subset []int, rem, add int) error {
			return evalSubset(slot, subset)
		})
	})
}

// phase3Lattice is the incremental Phase 3 over the combination lattice.
// Each member ships its genotype bit-pattern once; every combination's
// merged per-individual matrix is then derived leader-side by stacking
// patterns and reskinning with the combination's pooled frequencies. Along a
// Gray chain the stack updates by a single remove/push per step.
//
// Selections are bit-identical to the legacy path. For collusion
// combinations (c > 0) every consumer — per-individual scores, the exact
// k-th order statistic threshold, the power ratio — is invariant under row
// permutation of the case matrix, so the stack's slide-down row order is
// immaterial; the full-membership combination, whose discriminability order
// IS row-order sensitive, is built in canonical member order from a fresh
// concatenation. See DESIGN.md's subset-lattice section for the full
// argument.
func (r *assessmentRun) phase3Lattice(plan *latticePlan, lDouble []int, per [][]int, order *[]int, refPattern **lrtest.BitMatrix, fullPower *float64, reskinBytes int64) error {
	cols := int64(len(lDouble))
	ps := newPatternSet(r, lDouble)
	defer ps.release()
	var totalRows int64
	for _, n := range r.caseNs {
		totalRows += n
	}

	// Slot 0: the full membership, always first and sequential — it anchors
	// the canonical admission order and the reference pattern.
	evalFull := func(subset []int) error {
		if err := r.ctxErr(); err != nil {
			return err
		}
		var comboNames []string
		if r.cs != nil {
			comboNames = subsetNames(r.cs.names, subset)
		}
		counts, n := r.subsetCounts(subset)

		start := time.Now()
		caseFreq := Frequencies(counts, n, lDouble)
		refFreq := Frequencies(r.refCounts, r.refN, lDouble)
		r.addTiming(&r.report.Timings.Indexing, start)

		if rec, ok := r.cs.seededCombination(comboNames); ok && len(rec.Order) > 0 {
			refLR, berr := BuildLRBitMatrix(r.ref, lDouble, caseFreq, refFreq)
			if berr == nil {
				*refPattern = refLR
				*order = append([]int(nil), rec.Order...)
				r.markResumed()
				per[0] = rec.Safe
				*fullPower = rec.Power
				return r.cs.recordCombination(comboNames, rec.Safe, rec.Power, rec.Order, false)
			}
		}

		// Fetch every member's pattern concurrently — the only member
		// contact the whole phase makes.
		start = time.Now()
		parts := make([]*lrtest.BitMatrix, len(subset))
		errs := make([]error, len(subset))
		var wg sync.WaitGroup
		for slot, i := range subset {
			slot, i := slot, i
			r.pool.Go(&wg, func() {
				p, err := ps.get(i)
				if err != nil {
					errs[slot] = err
					return
				}
				parts[slot] = p
			})
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		// Canonical member order and exact stride: the discriminability
		// order derived from this matrix is row-order sensitive.
		concat, err := lrtest.ConcatBitPatterns(parts...)
		r.addTiming(&r.report.Timings.DataAggregation, start)
		if err != nil {
			return fmt.Errorf("core: concatenate genotype patterns: %w", err)
		}
		lrBytes := bitLRBytes(totalRows, cols) + reskinBytes
		if err := r.allocLR(lrBytes); err != nil {
			return err
		}
		defer r.freeLR(lrBytes)

		start = time.Now()
		ratios, err := lrtest.NewLogRatios(caseFreq, refFreq)
		if err != nil {
			return fmt.Errorf("core: log ratios: %w", err)
		}
		merged, err := concat.Reskin(ratios)
		if err != nil {
			return err
		}
		refLR, err := BuildLRBitMatrix(r.ref, lDouble, caseFreq, refFreq)
		if err != nil {
			return err
		}
		*refPattern = refLR
		*order = lrtest.DiscriminabilityOrderBit(merged, refLR)
		safe, power, err := LRPhaseBitOrdered(lDouble, merged, refLR, r.cfg.LR, *order)
		r.addTiming(&r.report.Timings.LRTest, start)
		if err != nil {
			return err
		}
		per[0] = safe
		*fullPower = power
		var orderCkpt []int
		if r.cs != nil {
			orderCkpt = append([]int(nil), *order...)
		}
		return r.cs.recordCombination(comboNames, safe, power, orderCkpt, true)
	}
	if err := evalFull(plan.chains[0].head); err != nil {
		return err
	}

	// Collusion chains: one pattern stack, one selector, and one running
	// count vector per chain, each updated by one member's delta per Gray
	// step. Seeded (checkpoint-replayed) steps update only the counts and
	// mark the stack stale — no member contact, no splicing — and the next
	// live step rebuilds the stack from the patterns already on hand.
	//
	// The chains run concurrently on every worker: the paper's §5.6 notes the
	// leader enclave can evaluate the combinations "efficiently ... in
	// parallel ... as it already stores all necessary data". After the
	// full-membership evaluation every chain reads the same order, reference
	// pattern and member patterns and writes only its own result slots, so
	// the selections do not depend on the schedule; only the order in which
	// combination records reach the checkpoint does.
	chains := plan.chains[1:]
	return r.pool.RunStealing(len(chains), r.pool.size(), func(i int) error {
		ch := &chains[i]
		sel := lrtest.NewSelector()
		var stack *lrtest.PatternStack
		var stackBytes int64
		stale := true
		var counts []int64
		var n int64
		defer func() { r.freeLR(stackBytes) }()
		return ch.walk(func(pos, slot int, subset []int, rem, add int) error {
			if err := r.ctxErr(); err != nil {
				return err
			}
			if pos == 0 {
				counts, n = r.subsetCounts(subset)
			} else {
				aggStart := time.Now()
				for l, c := range r.counts[add] {
					counts[l] += c - r.counts[rem][l]
				}
				n += r.caseNs[add] - r.caseNs[rem]
				r.addTiming(&r.report.Timings.DataAggregation, aggStart)
			}
			var comboNames []string
			if r.cs != nil {
				comboNames = subsetNames(r.cs.names, subset)
			}
			if rec, ok := r.cs.seededCombination(comboNames); ok {
				r.markResumed()
				per[slot] = rec.Safe
				stale = true
				return r.cs.recordCombination(comboNames, rec.Safe, rec.Power, nil, false)
			}

			idxStart := time.Now()
			caseFreq := Frequencies(counts, n, lDouble)
			refFreq := Frequencies(r.refCounts, r.refN, lDouble)
			r.addTiming(&r.report.Timings.Indexing, idxStart)

			aggStart := time.Now()
			if stack == nil {
				stack = lrtest.NewPatternStack(int(totalRows), len(lDouble))
				bytes := bitLRBytes(totalRows, cols)
				if err := r.allocLR(bytes); err != nil {
					return err
				}
				stackBytes = bytes
			}
			if stale {
				stack.Reset()
				for _, i := range subset {
					p, err := ps.get(i)
					if err != nil {
						return err
					}
					if err := stack.Push(i, p); err != nil {
						return err
					}
				}
				stale = false
			} else {
				if err := stack.Remove(rem); err != nil {
					return err
				}
				p, err := ps.get(add)
				if err != nil {
					return err
				}
				if err := stack.Push(add, p); err != nil {
					return err
				}
			}
			r.addTiming(&r.report.Timings.DataAggregation, aggStart)

			lrStart := time.Now()
			if err := r.allocLR(2 * reskinBytes); err != nil {
				return err
			}
			defer r.freeLR(2 * reskinBytes)
			ratios, err := lrtest.NewLogRatios(caseFreq, refFreq)
			if err != nil {
				return fmt.Errorf("core: log ratios: %w", err)
			}
			caseLR, err := stack.Matrix().Reskin(ratios)
			if err != nil {
				return err
			}
			refLR, err := (*refPattern).Reskin(ratios)
			if err != nil {
				return err
			}
			safe, power, err := LRPhaseBitSelector(lDouble, caseLR, refLR, r.cfg.LR, *order, sel)
			r.addTiming(&r.report.Timings.LRTest, lrStart)
			if err != nil {
				return err
			}
			per[slot] = safe
			return r.cs.recordCombination(comboNames, safe, power, nil, true)
		})
	})
}

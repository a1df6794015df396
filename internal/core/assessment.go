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
// Member-side computations (count vectors, pair statistics, genotype
// patterns) are requested concurrently, mirroring the real deployment where
// each GDO works on its own machine — the reason the paper's running time
// drops as the federation grows.
//
// When the policy tolerates colluders, the full-membership evaluation is
// always included alongside the C(G, G−f) honest subsets, so the released
// set is safe both for the actual all-member release and for every residual
// view colluders could isolate.
//
// leaderEnclave, when non-nil, accounts the leader-side protected memory the
// protocol intermediates occupy (count vectors, pair statistics, LR-matrices)
// and is the source of Table 3's memory column.
//
// opts adds cancellation, checkpoint durability and quorum degradation; the
// zero options run the base protocol. When opts.Checkpoints is set, phase
// boundaries are persisted to the store, and a compatible existing
// checkpoint (same fingerprint: configuration, policy, provider name set,
// reference dimensions) seeds the run — completed phases replay from the
// snapshot instead of re-querying members (Phase 1, a pure function of the
// checkpointed counts and the panel, is recomputed), and Report.Resumed
// records that it happened. When opts.Resilience enables degradation, a
// failed member is excluded and the run restarts over the survivors.
//
// Each member is wrapped in its cache (cachedProvider) here and nowhere else:
// one per member per assessment, shared by every attempt.
func RunAssessment(members []Provider, reference *genome.Matrix, cfg Config, policy CollusionPolicy, leaderEnclave *enclave.Enclave, opts AssessmentOptions) (*Report, error) {
	cached := make([]*cachedProvider, len(members))
	for i, m := range members {
		cached[i] = newCachedProvider(m)
	}
	if opts.Resilience.Enabled() {
		return runResilient(cached, reference, cfg, policy, leaderEnclave, opts)
	}
	return runOnce(cached, reference, cfg, policy, leaderEnclave, opts)
}

// runOnce is one assessment attempt over a fixed membership: the first
// member failure ends it.
func runOnce(members []*cachedProvider, reference *genome.Matrix, cfg Config, policy CollusionPolicy, leaderEnclave *enclave.Enclave, opts AssessmentOptions) (*Report, error) {
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
		members: members,
		report:  &Report{Combinations: len(subsets)},
		pool:    defaultWorkPool(),
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
	// pairs holds the statistics of every pair Phase 2 has touched, the
	// reference panel's and the members' (pairTable). It lives exactly as
	// long as Phase 2 (releasePairs).
	pairs *pairTable

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

// pairEntry returns the table index of a pair's entry. The first touch
// computes the reference panel's statistics — the single counts are known
// from Phase 1, so that is one PairCount column pass — and the panel's LD
// decision across the band, and accounts the pair's leader-side footprint
// once: the reference contribution plus one per member.
func (r *assessmentRun) pairEntry(a, b int) (int, error) {
	if k, ok := r.pairs.lookup(a, b); ok {
		return k, nil
	}
	if err := r.alloc(bytesPerPairStat * int64(len(r.members)+1)); err != nil {
		return 0, err
	}
	s := genome.PairStatsFromCounts(r.refN, r.refCounts[a], r.refCounts[b], r.refCols.PairCount(a, b))
	return r.pairs.add(a, b, s, r.cfg.LDCutoff), nil
}

// releasePairs ends the pair statistics' life at the Phase-2 boundary, once
// recordLD has taken L″: Phase 3 never reads a pair, so the table is dropped
// and the bytes pairEntry accounted for it are returned.
func (r *assessmentRun) releasePairs() {
	r.free(int64(len(r.pairs.entries)) * bytesPerPairStat * int64(len(r.members)+1))
	r.pairs = nil
}

// predictPair is the run's PairPredictor, the panel's band decision. A pair
// it cannot account is settled independent; the prefetch that announces it
// meets the same error and reports it.
func (r *assessmentRun) predictPair(a, b int) (dependent, open bool) {
	if _, err := r.pairEntry(a, b); err != nil {
		return false, false
	}
	return r.pairs.predict(a, b)
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
	fullN := r.refN
	for _, n := range r.caseNs {
		fullN += n
	}
	r.pairs = newPairTable(len(r.refCounts), len(r.members), fullN)
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

// phase1MAF is Phase 1 for every combination. It always runs: its outputs
// are a pure function of the summaries and the panel, so a resumed run
// recomputes them from the checkpointed counts rather than reading them back.
func (r *assessmentRun) phase1MAF(plan *latticePlan) ([]int, [][]int, error) {
	if err := r.ctxErr(); err != nil {
		return nil, nil, err
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
	if err := r.cs.recordMAF(); err != nil {
		return nil, nil, err
	}
	return intersected, per, nil
}

// errNeedsFetch stops a scan over the frozen pair table at the first value
// the table lacks (ldSources).
var errNeedsFetch = errors.New("core: pair statistics not in the frozen table")

// ldSources returns one combination's pooled statistics, predictor and
// prefetch for LDPhaseBatch. With fetch set they fill the table from the
// subset's members as the scan needs: announced stretches as one batch per
// member (prefetchPairs), and any contribution still missing pair by pair
// (pooledPair). Without, they only read the table, and the scan stops with
// errNeedsFetch at the first announcement or pooled query the table cannot
// serve; a pair the table lacks is predicted settled independent, and since
// every predicted pair is announced before it is examined, the stop follows
// at that announcement.
func (r *assessmentRun) ldSources(subset []int, fetch bool) (PairStatsFunc, PairPredictor, PairBatchFunc) {
	if fetch {
		pooled := func(a, b int) (genome.PairStats, error) { return r.pooledPair(subset, a, b) }
		prefetch := func(pairs [][2]int) error { return r.prefetchPairs(subset, pairs) }
		return pooled, r.predictPair, prefetch
	}
	t := r.pairs
	pooled := func(a, b int) (genome.PairStats, error) {
		if k, ok := t.lookup(a, b); ok {
			if s, ok := t.pooled(k, subset); ok {
				return s, nil
			}
		}
		return genome.PairStats{}, errNeedsFetch
	}
	prefetch := func(pairs [][2]int) error {
		for _, p := range pairs {
			if _, err := pooled(p[0], p[1]); err != nil {
				return err
			}
		}
		return nil
	}
	return pooled, t.predict, prefetch
}

// prefetchPairs has each member of the subset send, in one batched request
// and in parallel, the given pairs the table holds no contribution of it
// for. A member that cannot batch is skipped; pooledPair fetches its pairs
// one by one as the scan examines them.
func (r *assessmentRun) prefetchPairs(subset []int, pairs [][2]int) error {
	if len(pairs) == 0 {
		return nil
	}
	keys := make([]int, len(pairs))
	for j, p := range pairs {
		k, err := r.pairEntry(p[0], p[1])
		if err != nil {
			return err
		}
		keys[j] = k
	}
	errs := make([]error, len(subset))
	var wg sync.WaitGroup
	for slot, i := range subset {
		batcher, ok := r.members[i].inner.(BatchPairProvider)
		if !ok {
			continue
		}
		var missing [][2]int
		var slots []*memberPair
		for j, k := range keys {
			if m := r.pairs.member(k, i); !m.have {
				missing = append(missing, pairs[j])
				slots = append(slots, m)
			}
		}
		if len(missing) == 0 {
			continue
		}
		slot, i := slot, i
		r.pool.Go(&wg, func() {
			stats, err := batcher.PairStatsBatch(missing)
			if err == nil && len(stats) != len(missing) {
				err = fmt.Errorf("core: batch returned %d entries for %d pairs", len(stats), len(missing))
			}
			for j := 0; err == nil && j < len(stats); j++ {
				err = checkPairStats(stats[j], missing[j][0], missing[j][1], r.counts[i], r.caseNs[i])
			}
			if err != nil {
				errs[slot] = memberErr(i, PhaseLD, "pair prefetch: %w", err)
				return
			}
			for j, m := range slots {
				m.s, m.have = stats[j], true
			}
		})
	}
	wg.Wait()
	return errors.Join(errs...)
}

// pooledPair is the subset's pooled statistics for one pair, fetching in
// parallel any member contribution the table lacks.
func (r *assessmentRun) pooledPair(subset []int, a, b int) (genome.PairStats, error) {
	k, err := r.pairEntry(a, b)
	if err != nil {
		return genome.PairStats{}, err
	}
	if s, ok := r.pairs.pooled(k, subset); ok {
		return s, nil
	}
	errs := make([]error, len(subset))
	var wg sync.WaitGroup
	for slot, i := range subset {
		m := r.pairs.member(k, i)
		if m.have {
			continue
		}
		slot, i := slot, i
		r.pool.Go(&wg, func() {
			s, err := r.members[i].inner.PairStats(a, b)
			if err == nil {
				err = checkPairStats(s, a, b, r.counts[i], r.caseNs[i])
			}
			if err != nil {
				errs[slot] = memberErr(i, PhaseLD, "pair stats: %w", err)
				return
			}
			m.s, m.have = s, true
		})
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return genome.PairStats{}, err
	}
	s, _ := r.pairs.pooled(k, subset)
	return s, nil
}

func (r *assessmentRun) phase2LD(plan *latticePlan, lPrime []int) ([]int, [][]int, error) {
	if err := r.ctxErr(); err != nil {
		return nil, nil, err
	}
	if perLD, ok := r.cs.seededLD(); ok && len(perLD) == plan.count {
		// Resume: Phase 2 outputs come from the checkpoint and Phase 3 needs
		// nothing else from it — no pair is fetched or computed.
		r.resumed = true
		if err := r.cs.recordLD(perLD, false); err != nil {
			return nil, nil, err
		}
		return IntersectSorted(perLD...), perLD, nil
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

	// With the panel and the ranking in hand the scan runs ahead on the
	// panel's band decisions: every state a combination's scan can reach
	// while its statistics stay in the band is fetched from every member in
	// one round trip, charged one count per state (at least one per
	// position), and shared by all combinations.
	start = time.Now()
	announced, pairs := ldClosure(lPrime, r.predictPair, pvals)
	r.addTiming(&r.report.Timings.LD, start)
	if err := r.alloc(int64(max(len(lPrime), announced.n)) * bytesPerCount); err != nil {
		return nil, nil, err
	}
	start = time.Now()
	err = r.prefetchPairs(plan.chains[0].head, pairs)
	r.addTiming(&r.report.Timings.DataAggregation, start)
	if err != nil {
		return nil, nil, err
	}

	per := make([][]int, plan.count)
	scan := func(ch *latticeChain, fetch bool) error {
		return ch.walk(func(pos, slot int, subset []int, rem, add int) error {
			// The scan's own states: one count per position, and one per
			// state beyond that, charged as its pair is announced.
			held, states := int64(len(lPrime))*bytesPerCount, int64(0)
			if err := r.alloc(held); err != nil {
				return err
			}
			defer func() { r.free(held) }()
			start := time.Now()
			pooled, predict, prefetch := r.ldSources(subset, fetch)
			charged := func(pairs [][2]int) error {
				if states += int64(len(pairs)) * bytesPerCount; states > held {
					if err := r.alloc(states - held); err != nil {
						return err
					}
					held = states
				}
				return prefetch(pairs)
			}
			lDouble, err := LDPhaseBatch(lPrime, pooled, predict, charged, announced, pvals, r.cfg.LDCutoff)
			r.addTiming(&r.report.Timings.LD, start)
			if err != nil {
				return err
			}
			per[slot] = lDouble
			return nil
		})
	}
	// Two passes, the paper's §5.6 parallel evaluation with the traffic of
	// an in-order walk. The full membership scans first, fetching as it
	// goes. The collusion chains then run on every worker against the table
	// as it stands, frozen: a chain that would need anything the table lacks
	// stops (errNeedsFetch) and is re-run afterwards, in plan order on this
	// goroutine, with fetching. What a scan announces and examines depends
	// only on exact statistics and the predictor — both passes read the same
	// band decision from the pair's entry — never on what is cached, and a
	// chain that needs nothing from the frozen table needs nothing
	// from any larger one; so the re-runs send exactly what the in-order
	// walk sends, in the same batches and order, whatever the schedule.
	errs := make([]error, len(plan.chains))
	errs[0] = scan(&plan.chains[0], true)
	// Each chain's outcome is kept in its own slot, so the pool's joined
	// error has nothing to add.
	_ = r.pool.RunStealing(len(plan.chains)-1, r.pool.size(), func(i int) error {
		errs[i+1] = scan(&plan.chains[i+1], false)
		return nil
	})
	for i := range plan.chains {
		if errors.Is(errs[i], errNeedsFetch) {
			errs[i] = scan(&plan.chains[i], true)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	start = time.Now()
	intersected := IntersectSorted(per...)
	r.addTiming(&r.report.Timings.LD, start)
	if err := r.cs.recordLD(per, true); err != nil {
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

// phase3LR is Phase 3 over the combination lattice. Each member ships its
// genotype bit-pattern once; every combination's merged per-individual
// matrix is then derived leader-side by stacking patterns and reskinning
// with the combination's pooled frequencies. Along a Gray chain the stack
// updates by a single remove/push per step.
//
// Selections are bit-identical to merging per-combination member LR-matrices
// (TestPhase3BitKernelGolden and TestLatticeMatchesLegacyGolden pin them to
// the dense reference). For collusion combinations (c > 0) every consumer — per-individual scores, the
// exact k-th order statistic threshold, the power ratio — is invariant under
// row permutation of the case matrix, so the stack's slide-down row order is
// immaterial; the full-membership combination, whose discriminability order
// IS row-order sensitive, is built in canonical member order from a fresh
// concatenation. See DESIGN.md's subset-lattice section for the full
// argument.
func (r *assessmentRun) phase3LR(plan *latticePlan, lDouble []int) ([]int, [][]int, float64, error) {
	if err := r.ctxErr(); err != nil {
		return nil, nil, 0, err
	}
	per := make([][]int, plan.count)

	// The reference pattern lives for the whole phase.
	refBytes := bitLRBytes(r.refN, int64(len(lDouble)))
	if err := r.allocLR(refBytes); err != nil {
		return nil, nil, 0, err
	}
	defer r.freeLR(refBytes)
	ps := newPatternSet(r, lDouble)
	defer ps.release()

	// Slot 0: the full membership, always first and sequential — it anchors
	// the admission order and the reference LR-matrix every other combination
	// shares. The reference matrix's cell bits are combination-independent:
	// refFreq depends only on the reference counts, so across combinations
	// only the per-column log ratios change, never which cells are minor
	// alleles, and every other combination reskins it with its own ratios.
	full := plan.chains[0].head
	counts, n := r.subsetCounts(full)
	start := time.Now()
	caseFreq := Frequencies(counts, n, lDouble)
	refFreq := Frequencies(r.refCounts, r.refN, lDouble)
	r.addTiming(&r.report.Timings.Indexing, start)
	start = time.Now()
	refPattern, err := BuildLRBitMatrix(r.ref, lDouble, caseFreq, refFreq)
	r.addTiming(&r.report.Timings.LRTest, start)
	if err != nil {
		return nil, nil, 0, err
	}
	order, fullPower, err := r.phase3Full(full, lDouble, caseFreq, refFreq, refPattern, ps, per)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := r.phase3Chains(plan.chains[1:], lDouble, ps, order, refPattern, per); err != nil {
		return nil, nil, 0, err
	}

	start = time.Now()
	intersected := IntersectSorted(per...)
	r.addTiming(&r.report.Timings.LRTest, start)
	return intersected, per, fullPower, nil
}

// phase3Full evaluates the full-membership combination into per[0] and
// returns its power and the admission order (see LRPhaseBitOrdered), derived
// once here and shared with every collusion combination.
func (r *assessmentRun) phase3Full(subset []int, lDouble []int, caseFreq, refFreq []float64, refLR *lrtest.BitMatrix, ps *patternSet, per [][]int) ([]int, float64, error) {
	if err := r.ctxErr(); err != nil {
		return nil, 0, err
	}
	var comboNames []string
	if r.cs != nil {
		comboNames = subsetNames(r.cs.names, subset)
	}
	if rec, ok := r.cs.seededCombination(comboNames); ok && len(rec.Order) > 0 {
		// The checkpoint holds the admission order directly; the merged
		// per-individual matrix it came from never is.
		r.markResumed()
		per[0] = rec.Safe
		return append([]int(nil), rec.Order...), rec.Power, r.cs.recordCombination(comboNames, rec.Safe, rec.Power, rec.Order, false)
	}

	// Fetch every member's pattern concurrently — the only member contact
	// the whole phase makes.
	start := time.Now()
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
		return nil, 0, err
	}
	// Canonical member order and exact stride: the discriminability order
	// derived from this matrix is row-order sensitive.
	concat, err := lrtest.ConcatBitPatterns(parts...)
	r.addTiming(&r.report.Timings.DataAggregation, start)
	if err != nil {
		return nil, 0, fmt.Errorf("core: concatenate genotype patterns: %w", err)
	}
	cols := int64(len(lDouble))
	lrBytes := bitLRBytes(ps.rows(), cols) + 16*cols
	if err := r.allocLR(lrBytes); err != nil {
		return nil, 0, err
	}
	defer r.freeLR(lrBytes)

	start = time.Now()
	ratios, err := lrtest.NewLogRatios(caseFreq, refFreq)
	if err != nil {
		return nil, 0, fmt.Errorf("core: log ratios: %w", err)
	}
	merged, err := concat.Reskin(ratios)
	if err != nil {
		return nil, 0, err
	}
	order := lrtest.DiscriminabilityOrderBit(merged, refLR)
	safe, power, err := LRPhaseBitOrdered(lDouble, merged, refLR, r.cfg.LR, order)
	r.addTiming(&r.report.Timings.LRTest, start)
	if err != nil {
		return nil, 0, err
	}
	per[0] = safe
	var orderCkpt []int
	if r.cs != nil {
		// Only the full-membership combination persists its admission
		// order: that derived ranking is all a resuming leader needs to
		// anchor the other combinations.
		orderCkpt = append([]int(nil), order...)
	}
	return order, power, r.cs.recordCombination(comboNames, safe, power, orderCkpt, true)
}

// phase3Chains evaluates the collusion combinations: one pattern stack, one
// selector, and one running count vector per chain, each updated by one
// member's delta per Gray step. Seeded (checkpoint-replayed) steps update
// only the counts and mark the stack stale — no member contact, no splicing
// — and the next live step rebuilds the stack from the patterns already on
// hand.
//
// The chains run concurrently on every worker: the paper's §5.6 notes the
// leader enclave can evaluate the combinations "efficiently ... in parallel
// ... as it already stores all necessary data". Every chain reads the same
// order, reference pattern and member patterns and writes only its own
// result slots, so the selections do not depend on the schedule; only the
// order in which combination records reach the checkpoint does.
func (r *assessmentRun) phase3Chains(chains []latticeChain, lDouble []int, ps *patternSet, order []int, refPattern *lrtest.BitMatrix, per [][]int) error {
	cols := int64(len(lDouble))
	reskinBytes := 16 * cols // a reskin allocates only two representatives per column
	totalRows := ps.rows()
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
			refLR, err := refPattern.Reskin(ratios)
			if err != nil {
				return err
			}
			safe, power, err := LRPhaseBitSelector(lDouble, caseLR, refLR, r.cfg.LR, order, sel)
			r.addTiming(&r.report.Timings.LRTest, lrStart)
			if err != nil {
				return err
			}
			per[slot] = safe
			return r.cs.recordCombination(comboNames, safe, power, nil, true)
		})
	})
}

package core

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"gendpr/internal/enclave"
	"gendpr/internal/genome"
)

// testCohort builds a deterministic small cohort.
func testCohort(t testing.TB, snps, caseN int, seed int64) *genome.Cohort {
	t.Helper()
	cohort, err := genome.Generate(genome.DefaultGeneratorConfig(snps, caseN, seed))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return cohort
}

func shardsOf(t testing.TB, cohort *genome.Cohort, g int) []*genome.Matrix {
	t.Helper()
	shards, err := cohort.Partition(g)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	return shards
}

func TestDistributedMatchesCentralized(t *testing.T) {
	cohort := testCohort(t, 150, 360, 17)
	cfg := DefaultConfig()

	central, err := RunCentralized(cohort, cfg)
	if err != nil {
		t.Fatalf("RunCentralized: %v", err)
	}
	if len(central.Selection.AfterMAF) == 0 {
		t.Fatal("degenerate test data: nothing survived MAF")
	}
	if len(central.Selection.AfterLD) >= len(central.Selection.AfterMAF) {
		t.Fatal("degenerate test data: LD phase pruned nothing")
	}

	for _, g := range []int{2, 3, 5, 7} {
		dist, err := RunDistributed(shardsOf(t, cohort, g), cohort.Reference, cfg, CollusionPolicy{})
		if err != nil {
			t.Fatalf("RunDistributed g=%d: %v", g, err)
		}
		if !dist.Selection.Equal(central.Selection) {
			t.Errorf("g=%d: GenDPR %v != centralized %v (Table 4 property violated)",
				g, dist.Selection, central.Selection)
		}
	}
}

func TestDistributedSafeSubsetChain(t *testing.T) {
	cohort := testCohort(t, 120, 300, 23)
	rep, err := RunDistributed(shardsOf(t, cohort, 3), cohort.Reference, DefaultConfig(), CollusionPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	sel := rep.Selection
	assertSubset(t, sel.AfterLD, sel.AfterMAF, "L'' ⊆ L'")
	assertSubset(t, sel.Safe, sel.AfterLD, "L_safe ⊆ L''")
	if sel.Power >= DefaultConfig().LR.PowerThreshold {
		t.Errorf("released power %v above threshold", sel.Power)
	}
	if rep.Combinations != 1 {
		t.Errorf("combinations=%d, want 1 without collusion tolerance", rep.Combinations)
	}
	if rep.Timings.Total() <= 0 {
		t.Error("timings not recorded")
	}
}

func assertSubset(t *testing.T, sub, super []int, label string) {
	t.Helper()
	in := make(map[int]bool, len(super))
	for _, v := range super {
		in[v] = true
	}
	for _, v := range sub {
		if !in[v] {
			t.Fatalf("%s violated: %d not in superset", label, v)
		}
	}
}

func TestCollusionToleranceShrinksRelease(t *testing.T) {
	cohort := testCohort(t, 140, 420, 31)
	shards := shardsOf(t, cohort, 3)
	cfg := DefaultConfig()

	base, err := RunDistributed(shards, cohort.Reference, cfg, CollusionPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	tolerant, err := RunDistributed(shards, cohort.Reference, cfg, CollusionPolicy{F: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The tolerant MAF survivors are an intersection that includes the
	// full-membership evaluation, so they nest inside the base run's.
	// Later phases do not nest across runs: the tolerant LD scan walks a
	// different (smaller) L', which changes the greedy adjacency chain, and
	// the LR-test then evaluates a different column set. Within the run the
	// funnel chain always holds.
	assertSubset(t, tolerant.Selection.AfterMAF, base.Selection.AfterMAF, "tolerant MAF ⊆ base MAF")
	assertSubset(t, tolerant.Selection.AfterLD, tolerant.Selection.AfterMAF, "tolerant LD ⊆ tolerant MAF")
	assertSubset(t, tolerant.Selection.Safe, tolerant.Selection.AfterLD, "tolerant safe ⊆ tolerant LD")
	if tolerant.Combinations != 1+3 { // full set + C(3,1)
		t.Errorf("combinations=%d, want 4", tolerant.Combinations)
	}
	if len(tolerant.PerCombination) != tolerant.Combinations {
		t.Errorf("per-combination records %d, want %d", len(tolerant.PerCombination), tolerant.Combinations)
	}
	// The intersected result must be contained in every combination's list.
	for c, sel := range tolerant.PerCombination {
		assertSubset(t, tolerant.Selection.Safe, sel.Safe, "intersection ⊆ combination "+string(rune('0'+c)))
	}
}

func TestConservativeMode(t *testing.T) {
	cohort := testCohort(t, 100, 300, 37)
	shards := shardsOf(t, cohort, 3)
	rep, err := RunDistributed(shards, cohort.Reference, DefaultConfig(), CollusionPolicy{Conservative: true})
	if err != nil {
		t.Fatal(err)
	}
	// 1 (full) + C(3,2) + C(3,1) = 1 + 3 + 3.
	if rep.Combinations != 7 {
		t.Errorf("combinations=%d, want 7", rep.Combinations)
	}
	fixed, err := RunDistributed(shards, cohort.Reference, DefaultConfig(), CollusionPolicy{F: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Conservative mode evaluates a superset of f=1's combinations, so its
	// Phase 1 intersection nests inside f=1's (later phases walk different
	// survivor chains and need not nest).
	assertSubset(t, rep.Selection.AfterMAF, fixed.Selection.AfterMAF, "conservative MAF ⊆ f=1 MAF")
}

func TestObliviousMemberMatchesLocalMember(t *testing.T) {
	cohort := testCohort(t, 90, 240, 67)
	shards := shardsOf(t, cohort, 3)

	plainProviders := make([]Provider, len(shards))
	oblivProviders := make([]Provider, len(shards))
	for i, s := range shards {
		plainProviders[i] = NewLocalMember(s)
		om, err := NewObliviousMember(s, rand.New(rand.NewSource(int64(i)+1)))
		if err != nil {
			t.Fatal(err)
		}
		oblivProviders[i] = om
	}
	plain, err := RunAssessment(plainProviders, cohort.Reference, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obliv, err := RunAssessment(oblivProviders, cohort.Reference, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Selection.Equal(obliv.Selection) {
		t.Errorf("oblivious members selected %v, plain members %v", obliv.Selection, plain.Selection)
	}
}

func TestObliviousMemberPrimitives(t *testing.T) {
	cohort := testCohort(t, 40, 70, 69)
	member, err := NewObliviousMember(cohort.Case, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	wantCounts := cohort.Case.AlleleCounts()
	gotCounts, err := member.Counts()
	if err != nil {
		t.Fatal(err)
	}
	for l := range wantCounts {
		if gotCounts[l] != wantCounts[l] {
			t.Fatalf("column %d: ORAM count %d, direct %d", l, gotCounts[l], wantCounts[l])
		}
	}
	want := cohort.Case.PairStats(3, 17)
	got, err := member.PairStats(3, 17)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("ORAM pair stats %+v, direct %+v", got, want)
	}
	if _, err := member.PairStats(0, 40); err == nil {
		t.Error("out-of-range pair accepted")
	}
	if _, err := NewObliviousMember(nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("nil shard accepted")
	}
}

func TestNaiveDivergesFromCentralized(t *testing.T) {
	cohort := testCohort(t, 150, 360, 17)
	cfg := DefaultConfig()
	central, err := RunCentralized(cohort, cfg)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := RunNaive(shardsOf(t, cohort, 3), cohort.Reference, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// MAF uses aggregated counts: identical (as the paper observes).
	if !equalInts(naive.Selection.AfterMAF, central.Selection.AfterMAF) {
		t.Error("naive MAF phase must match the centralized selection")
	}
	// LD/LR run on local views: the selection differs for this seed
	// (verified stable — the paper's Table 4 shows the same divergence).
	if equalInts(naive.Selection.AfterLD, central.Selection.AfterLD) &&
		equalInts(naive.Selection.Safe, central.Selection.Safe) {
		t.Error("naive baseline unexpectedly reproduced the centralized selection")
	}
	assertSubset(t, naive.Selection.Safe, naive.Selection.AfterLD, "naive safe ⊆ naive LD")
}

func TestRunAssessmentInputValidation(t *testing.T) {
	cohort := testCohort(t, 40, 60, 3)
	ref := cohort.Reference
	if _, err := RunAssessment(nil, ref, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{}); !errors.Is(err, ErrNoMembers) {
		t.Errorf("no members: %v", err)
	}
	member := NewLocalMember(cohort.Case)
	if _, err := RunAssessment([]Provider{member}, nil, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{}); err == nil {
		t.Error("nil reference must fail")
	}
	if _, err := RunAssessment([]Provider{member}, ref, Config{}, CollusionPolicy{}, nil, AssessmentOptions{}); err == nil {
		t.Error("zero config must fail validation")
	}
	if _, err := RunAssessment([]Provider{member}, ref, DefaultConfig(), CollusionPolicy{F: 5}, nil, AssessmentOptions{}); err == nil {
		t.Error("excessive f must fail")
	}
}

// faultyProvider lets tests inject malformed or failing member behaviour.
type faultyProvider struct {
	LocalMember
	counts []int64
	caseN  int64
	err    error
}

func (f *faultyProvider) Counts() ([]int64, error) {
	if f.err != nil {
		return nil, f.err
	}
	return f.counts, nil
}

func (f *faultyProvider) CaseN() (int64, error) { return f.caseN, nil }

func TestRunAssessmentRejectsTamperedCounts(t *testing.T) {
	cohort := testCohort(t, 40, 60, 3)
	good := NewLocalMember(cohort.Case)

	// Count vector longer than the SNP set.
	bad := &faultyProvider{counts: make([]int64, 41), caseN: 10}
	if _, err := RunAssessment([]Provider{good, bad}, cohort.Reference, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{}); err == nil {
		t.Error("oversized count vector accepted")
	}

	// Count exceeding the declared population (impossible data).
	counts := make([]int64, 40)
	counts[7] = 11
	bad = &faultyProvider{counts: counts, caseN: 10}
	if _, err := RunAssessment([]Provider{good, bad}, cohort.Reference, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{}); err == nil {
		t.Error("count > population accepted")
	}

	// A member that errors out.
	bad = &faultyProvider{err: errors.New("member crashed")}
	if _, err := RunAssessment([]Provider{good, bad}, cohort.Reference, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{}); err == nil ||
		!strings.Contains(err.Error(), "member crashed") {
		t.Errorf("member failure not propagated: %v", err)
	}
}

func TestEnclaveAccounting(t *testing.T) {
	// Large enough that pooled-genome storage (the centralized baseline's
	// burden) dominates the distributed leader's extra per-member vectors.
	cohort := testCohort(t, 512, 800, 41)
	central, err := RunCentralized(cohort, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dist, err := RunDistributed(shardsOf(t, cohort, 3), cohort.Reference, DefaultConfig(), CollusionPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if central.PeakEnclaveBytes == 0 || dist.PeakEnclaveBytes == 0 {
		t.Fatal("enclave accounting not recorded")
	}
	// The centralized enclave must pay for the pooled genomes; the GenDPR
	// leader holds only intermediates.
	if central.PeakEnclaveBytes <= dist.PeakEnclaveBytes {
		t.Errorf("centralized peak %d should exceed distributed peak %d",
			central.PeakEnclaveBytes, dist.PeakEnclaveBytes)
	}
}

func TestAssessmentFailsWhenEnclaveTooSmall(t *testing.T) {
	cohort := testCohort(t, 100, 240, 41)
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := platform.Load([]byte("x"), enclave.Config{MemoryLimit: 16})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunAssessment(
		[]Provider{NewLocalMember(cohort.Case)},
		cohort.Reference, DefaultConfig(), CollusionPolicy{}, tiny, AssessmentOptions{},
	)
	if !errors.Is(err, enclave.ErrOutOfMemory) {
		t.Fatalf("got %v, want enclave OOM", err)
	}
}

func TestLocalMemberPairStatsBounds(t *testing.T) {
	m := NewLocalMember(genome.NewMatrix(5, 10))
	if _, err := m.PairStats(0, 10); err == nil {
		t.Error("out-of-range pair accepted")
	}
	if _, err := m.PairStats(-1, 0); err == nil {
		t.Error("negative pair accepted")
	}
}

func TestBuildLRMatrixValidation(t *testing.T) {
	g := genome.NewMatrix(2, 5)
	if _, err := BuildLRBitMatrix(g, []int{0, 1}, []float64{0.1}, []float64{0.1, 0.2}); err == nil {
		t.Error("frequency length mismatch accepted")
	}
	if _, err := BuildLRBitMatrix(g, []int{7}, []float64{0.1}, []float64{0.1}); err == nil {
		t.Error("out-of-range column accepted")
	}
	m, err := BuildLRBitMatrix(g, []int{4, 0}, []float64{0.2, 0.3}, []float64{0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
}

func TestSelectionHelpers(t *testing.T) {
	s := Selection{AfterMAF: []int{1, 2, 3}, AfterLD: []int{1, 3}, Safe: []int{3}}
	maf, ld, lr := s.Counts()
	if maf != 3 || ld != 2 || lr != 1 {
		t.Errorf("counts %d/%d/%d", maf, ld, lr)
	}
	if got := s.String(); got != "MAF 3 / LD 2 / LR 1" {
		t.Errorf("String=%q", got)
	}
	if !s.Equal(s) {
		t.Error("selection not equal to itself")
	}
	if s.Equal(Selection{}) {
		t.Error("distinct selections compare equal")
	}
}

// countingBatchMember wraps a LocalMember and counts which pair-statistics
// path the leader exercises: lazy single-pair fetches vs batched requests.
type countingBatchMember struct {
	*LocalMember
	mu      sync.Mutex
	singles int
	batches int
	pairs   int      // pairs asked for across the batches
	first   [][2]int // the pairs of the first batch
}

func (c *countingBatchMember) PairStats(a, b int) (genome.PairStats, error) {
	c.mu.Lock()
	c.singles++
	c.mu.Unlock()
	return c.LocalMember.PairStats(a, b)
}

func (c *countingBatchMember) PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error) {
	c.mu.Lock()
	if c.batches++; c.first == nil {
		c.first = append([][2]int(nil), pairs...)
	}
	c.pairs += len(pairs)
	c.mu.Unlock()
	return c.LocalMember.PairStatsBatch(pairs)
}

// TestPhase2LDUsesBatchPath is the Phase-2 batching regression test: every
// pair the LD scan examines — the predicted closure fetched up front AND any
// stretch where the exact statistics lead the scan out of it — must reach
// members through PairStatsBatch, never through per-pair fallbacks. Seed 17 is
// a cohort whose reference panel alone predicts the whole scan; on seed 10 the
// panel's decision at its own size misses six times, and all six pairs are
// open in the band up to the pooled size, so the closure holds them: one
// request per member on both.
func TestPhase2LDUsesBatchPath(t *testing.T) {
	for _, tc := range []struct {
		seed    int64
		batches int
	}{{17, 1}, {10, 1}} {
		cohort := testCohort(t, 150, 360, tc.seed)
		members := make([]Provider, 0, 3)
		var counters []*countingBatchMember
		for _, shard := range shardsOf(t, cohort, 3) {
			c := &countingBatchMember{LocalMember: NewLocalMember(shard)}
			counters = append(counters, c)
			members = append(members, c)
		}
		report, err := RunAssessment(members, cohort.Reference, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{})
		if err != nil {
			t.Fatalf("RunAssessment: %v", err)
		}
		if len(report.Selection.AfterLD) >= len(report.Selection.AfterMAF) {
			t.Fatal("degenerate test data: LD phase pruned nothing, no survivor chain to batch")
		}
		for i, c := range counters {
			c.mu.Lock()
			singles, batches := c.singles, c.batches
			c.mu.Unlock()
			if singles != 0 {
				t.Errorf("seed %d, member %d: %d single-pair request(s) escaped the batch path", tc.seed, i, singles)
			}
			if batches != tc.batches {
				t.Errorf("seed %d, member %d: %d batched request(s), want %d", tc.seed, i, batches, tc.batches)
			}
		}
	}
}

// inflatedMember claims k times its case population, with every count and
// pair statistic scaled to match: consistent with itself, so every check on
// its replies passes, yet large enough to widen the panel's LD band to
// nearly every pair and to dominate the pooled ranking.
type inflatedMember struct {
	*countingBatchMember
	k int64
}

func (m *inflatedMember) Counts() ([]int64, error) {
	counts, err := m.countingBatchMember.Counts()
	scaled := make([]int64, len(counts))
	for i, c := range counts {
		scaled[i] = c * m.k
	}
	return scaled, err
}

func (m *inflatedMember) CaseN() (int64, error) {
	n, err := m.countingBatchMember.CaseN()
	return n * m.k, err
}

func (m *inflatedMember) scale(s genome.PairStats) genome.PairStats {
	return genome.PairStats{N: s.N * m.k, SumX: s.SumX * m.k, SumY: s.SumY * m.k, SumXY: s.SumXY * m.k, SumXX: s.SumXX * m.k, SumYY: s.SumYY * m.k}
}

func (m *inflatedMember) PairStats(a, b int) (genome.PairStats, error) {
	s, err := m.countingBatchMember.PairStats(a, b)
	return m.scale(s), err
}

func (m *inflatedMember) PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error) {
	stats, err := m.countingBatchMember.PairStatsBatch(pairs)
	for i := range stats {
		stats[i] = m.scale(stats[i])
	}
	return stats, err
}

// TestPhase2BoundedUnderInflatedCaseN: one member claims a case population
// 2²⁰ times its own. Nearly every pair is then open in the band, and the
// earliest SNPs win every tie of the pooled ranking, so the unbounded closure
// would hold about |L′|²/2 states. Bounded, no member's first batch exceeds
// three pairs per SNP of L′, and the run either finishes or blames the liar.
func TestPhase2BoundedUnderInflatedCaseN(t *testing.T) {
	const liar = 0
	cohort := testCohort(t, 150, 360, 17)
	shards := shardsOf(t, cohort, 3)
	newMembers := func() ([]Provider, []*countingBatchMember) {
		var members []Provider
		var counters []*countingBatchMember
		for i, shard := range shards {
			c := &countingBatchMember{LocalMember: NewLocalMember(shard)}
			counters = append(counters, c)
			if i == liar {
				members = append(members, &inflatedMember{c, 1 << 20})
			} else {
				members = append(members, c)
			}
		}
		return members, counters
	}
	blamesLiar := func(err error) bool {
		var me *MemberError
		return err == nil || errors.As(err, &me) && me.Member == liar
	}

	members, counters := newMembers()
	run := &assessmentRun{cfg: DefaultConfig(), ref: cohort.Reference, report: &Report{}, pool: defaultWorkPool()}
	for _, m := range members {
		run.members = append(run.members, newCachedProvider(m))
	}
	if err := run.collectSummaries(); err != nil {
		t.Fatal(err)
	}
	plan, err := buildLatticePlan(len(members), CollusionPolicy{}, run.pool.size())
	if err != nil {
		t.Fatal(err)
	}
	lPrime, _, err := run.phase1MAF(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run.phase2LD(plan, lPrime); !blamesLiar(err) {
		t.Fatalf("phase 2: %v, want success or member %d blamed", err, liar)
	}
	if first := len(counters[liar].first); first <= len(lPrime) {
		t.Fatalf("degenerate test data: first batch of %d pairs over |L′| = %d, the band did not widen", first, len(lPrime))
	}
	for i, c := range counters {
		if len(c.first) > 3*len(lPrime) {
			t.Errorf("member %d: first batch of %d pairs, want at most %d (three per SNP of L′ = %d)", i, len(c.first), 3*len(lPrime), len(lPrime))
		}
	}

	members, _ = newMembers()
	if _, err := RunAssessment(members, cohort.Reference, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{}); !blamesLiar(err) {
		t.Fatalf("RunAssessment: %v, want success or member %d blamed", err, liar)
	}
}

func TestCachedProviderFetchesOnce(t *testing.T) {
	cohort := testCohort(t, 30, 40, 5)
	counter := &countingProvider{Provider: NewLocalMember(cohort.Case)}
	c := newCachedProvider(counter)
	for i := 0; i < 3; i++ {
		if _, err := c.Counts(); err != nil {
			t.Fatal(err)
		}
	}
	if counter.countCalls != 1 {
		t.Errorf("Counts fetched %d times, want 1", counter.countCalls)
	}
}

type countingProvider struct {
	Provider
	countCalls int
}

func (c *countingProvider) Counts() ([]int64, error) {
	c.countCalls++
	return c.Provider.Counts()
}

package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
)

func TestMAFPhase(t *testing.T) {
	// 100 case + 100 reference individuals; cutoff 0.05 → needs >= 10
	// pooled carriers.
	caseCounts := []int64{0, 4, 9, 10, 50}
	refCounts := []int64{0, 5, 0, 0, 50}
	got, err := MAFPhase(caseCounts, 100, refCounts, 100, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 4} // pooled counts 0,9,9,10,100 → freq 0,.045,.045,.05,.5
	if !equalInts(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMAFPhaseLengthMismatch(t *testing.T) {
	if _, err := MAFPhase([]int64{1}, 1, []int64{1, 2}, 2, 0.05); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestMAFPhaseZeroCutoffKeepsAll(t *testing.T) {
	got, err := MAFPhase([]int64{0, 1}, 10, []int64{0, 0}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, []int{0, 1}) {
		t.Fatalf("got %v", got)
	}
}

func TestAssociationPValues(t *testing.T) {
	pvals, err := AssociationPValues([]int64{50, 10}, 100, []int64{10, 10}, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if pvals[0] >= pvals[1] {
		t.Errorf("strong association must have smaller p-value: %v", pvals)
	}
	if pvals[1] < 0.9 {
		t.Errorf("identical counts should be insignificant: %v", pvals[1])
	}
	// Inconsistent counts are rejected.
	if _, err := AssociationPValues([]int64{101}, 100, []int64{1}, 100, true); err == nil {
		t.Error("count > N must fail")
	}
	if _, err := AssociationPValues([]int64{1, 2}, 10, []int64{1}, 10, true); err == nil {
		t.Error("length mismatch must fail")
	}
}

// scriptedPairs builds a PairStatsFunc from a table of dependent pairs. The
// returned stats give the LD phase either a clearly dependent pair
// (perfectly correlated) or a clearly independent one.
func scriptedPairs(n int64, dependent map[[2]int]bool) PairStatsFunc {
	return func(a, b int) (genome.PairStats, error) {
		if dependent[[2]int{a, b}] || dependent[[2]int{b, a}] {
			half := n / 2
			return genome.PairStats{N: n, SumX: half, SumY: half, SumXY: half, SumXX: half, SumYY: half}, nil
		}
		half := n / 2
		quarter := n / 4
		return genome.PairStats{N: n, SumX: half, SumY: half, SumXY: quarter, SumXX: half, SumYY: half}, nil
	}
}

func TestLDPhaseAllIndependent(t *testing.T) {
	retained := []int{2, 5, 9}
	pvals := []float64{0, 0, 0.5, 0, 0, 0.1, 0, 0, 0, 0.9}
	got, err := LDPhase(retained, scriptedPairs(1000, nil), pvals, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, retained) {
		t.Fatalf("got %v, want all retained %v", got, retained)
	}
}

func TestLDPhaseDependentPairKeepsMostRanked(t *testing.T) {
	retained := []int{1, 2}
	dep := map[[2]int]bool{{1, 2}: true}
	// SNP 2 has the smaller association p-value → higher ranked.
	pvals := []float64{0, 0.9, 0.1}
	got, err := LDPhase(retained, scriptedPairs(1000, dep), pvals, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, []int{2}) {
		t.Fatalf("got %v, want [2]", got)
	}
	// Flip the ranking.
	pvals = []float64{0, 0.1, 0.9}
	got, err = LDPhase(retained, scriptedPairs(1000, dep), pvals, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, []int{1}) {
		t.Fatalf("got %v, want [1]", got)
	}
}

func TestLDPhaseChainOfDependents(t *testing.T) {
	// 1-2 dependent, survivor vs 3 dependent, survivor vs 4 independent.
	retained := []int{1, 2, 3, 4}
	dep := map[[2]int]bool{{1, 2}: true, {1, 3}: true}
	pvals := []float64{0, 0.01, 0.5, 0.6, 0.7}
	got, err := LDPhase(retained, scriptedPairs(1000, dep), pvals, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, []int{1, 4}) {
		t.Fatalf("got %v, want [1 4]", got)
	}
}

func TestLDPhaseTieBreaksDeterministically(t *testing.T) {
	retained := []int{3, 7}
	dep := map[[2]int]bool{{3, 7}: true}
	pvals := make([]float64, 8)
	for i := range pvals {
		pvals[i] = 0.5
	}
	got, err := LDPhase(retained, scriptedPairs(1000, dep), pvals, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, []int{3}) {
		t.Fatalf("tie must keep the lower index: got %v", got)
	}
}

func TestLDPhaseSmallInputs(t *testing.T) {
	got, err := LDPhase(nil, scriptedPairs(10, nil), nil, 1e-5)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty: %v, %v", got, err)
	}
	got, err = LDPhase([]int{4}, scriptedPairs(10, nil), []float64{0, 0, 0, 0, 0.5}, 1e-5)
	if err != nil || !equalInts(got, []int{4}) {
		t.Fatalf("singleton: %v, %v", got, err)
	}
}

// scriptedPredictor is the exact predictor for scriptedPairs' table, every
// pair settled.
func scriptedPredictor(dependent map[[2]int]bool) PairPredictor {
	return settled(func(a, b int) bool { return dependent[[2]int{a, b}] || dependent[[2]int{b, a}] })
}

// settled turns a decider into a predictor that calls no pair open.
func settled(decide func(a, b int) bool) PairPredictor {
	return func(a, b int) (bool, bool) { return decide(a, b), false }
}

// recordedScan runs LDPhaseBatch and returns its result with the pairs the
// scan examined (pool calls, in order) and the announcements it made.
// announced is a shared closure handed in as already fetched, with its pairs.
func recordedScan(t *testing.T, retained []int, pool PairStatsFunc, predict PairPredictor, announced ldStates, announcedPairs [][2]int, pvals []float64, cutoff float64) (out []int, examined [][2]int, announcements [][][2]int) {
	t.Helper()
	fetched := map[[2]int]bool{}
	for _, p := range announcedPairs {
		fetched[p] = true
	}
	recording := func(a, b int) (genome.PairStats, error) {
		if !fetched[[2]int{a, b}] {
			t.Errorf("pair (%d,%d) examined before it was announced", a, b)
		}
		examined = append(examined, [2]int{a, b})
		return pool(a, b)
	}
	prefetch := func(pairs [][2]int) error {
		if len(pairs) == 0 {
			t.Error("empty announcement")
		}
		for _, p := range pairs {
			fetched[p] = true
		}
		announcements = append(announcements, append([][2]int(nil), pairs...))
		return nil
	}
	out, err := LDPhaseBatch(retained, recording, predict, prefetch, announced, pvals, cutoff)
	if err != nil {
		t.Fatalf("LDPhaseBatch: %v", err)
	}
	return out, examined, announcements
}

func equalPairs(a, b [][2]int) bool {
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

func TestLDPhaseBatchAnnouncesExactlyThePredictedPath(t *testing.T) {
	// 1 eliminates 2, 3 and 4, then 5 is independent of 1 and 6 of 5.
	retained := []int{1, 2, 3, 4, 5, 6}
	dep := map[[2]int]bool{{1, 2}: true, {1, 3}: true, {1, 4}: true}
	pvals := []float64{0, 0.01, 0.5, 0.6, 0.7, 0.8, 0.9}
	pool := scriptedPairs(1000, dep)
	path := [][2]int{{1, 2}, {1, 3}, {1, 4}, {1, 5}, {5, 6}}

	// An exact predictor: one announcement, of exactly the examined pairs.
	got, examined, announcements := recordedScan(t, retained, pool, scriptedPredictor(dep), ldStates{}, nil, pvals, 1e-5)
	if !equalInts(got, []int{1, 5, 6}) {
		t.Fatalf("got %v, want [1 5 6]", got)
	}
	if !equalPairs(examined, path) {
		t.Fatalf("examined %v, want %v", examined, path)
	}
	if len(announcements) != 1 || !equalPairs(announcements[0], path) {
		t.Fatalf("announced %v, want one announcement of %v", announcements, path)
	}

	// The same closure handed in as already announced: nothing left to
	// announce, and the shared closure is not written.
	announced, pairs := ldClosure(retained, scriptedPredictor(dep), pvals)
	if !equalPairs(pairs, path) {
		t.Fatalf("predicted pairs %v, want %v", pairs, path)
	}
	got, _, announcements = recordedScan(t, retained, pool, scriptedPredictor(dep), announced, pairs, pvals, 1e-5)
	if !equalInts(got, []int{1, 5, 6}) || len(announcements) != 0 {
		t.Fatalf("pre-announced closure: got %v with announcements %v, want [1 5 6] and none", got, announcements)
	}

	// A predictor that misses (1,3): the prediction runs 1,2 → 1,3 → 3,4 → 4,5
	// → 5,6. The scan leaves it at position 3 (survivor 1, not 3) and announces
	// only the stretch up to where its own prediction meets the path again —
	// (1,4), (1,5), then survivor 5 at position 5 is already on it.
	miss := map[[2]int]bool{{1, 2}: true, {1, 4}: true}
	missPath := [][2]int{{1, 2}, {1, 3}, {3, 4}, {4, 5}, {5, 6}}
	detour := [][2]int{{1, 4}, {1, 5}}
	got, _, announcements = recordedScan(t, retained, pool, scriptedPredictor(miss), ldStates{}, nil, pvals, 1e-5)
	want := [][][2]int{missPath, detour}
	if !equalInts(got, []int{1, 5, 6}) {
		t.Fatalf("got %v, want [1 5 6]", got)
	}
	if len(announcements) != len(want) || !equalPairs(announcements[0], want[0]) || !equalPairs(announcements[1], want[1]) {
		t.Fatalf("announced %v, want %v", announcements, want)
	}

	// The same miss from the shared closure of that predictor: the closure is
	// its path, and the scan announces the same detour, stopping at the shared
	// state; the shared closure is not written.
	shared, sharedPairs := ldClosure(retained, scriptedPredictor(miss), pvals)
	if !equalPairs(sharedPairs, missPath) {
		t.Fatalf("shared closure %v, want %v", sharedPairs, missPath)
	}
	before := fmt.Sprint(shared)
	got, _, announcements = recordedScan(t, retained, pool, scriptedPredictor(miss), shared, sharedPairs, pvals, 1e-5)
	if !equalInts(got, []int{1, 5, 6}) {
		t.Fatalf("got %v, want [1 5 6]", got)
	}
	if len(announcements) != 1 || !equalPairs(announcements[0], detour) {
		t.Fatalf("announced %v, want one detour %v", announcements, detour)
	}
	if fmt.Sprint(shared) != before {
		t.Fatalf("the caller's announced closure was written: %v, was %v", shared, before)
	}

	// The same predictor with (1,3) open: the closure follows the panel's
	// branch to the end, then the other branch of (1,3) — survivor 1 at
	// position 3 — until it meets survivor 5 at position 5. It holds every
	// pair the scan examines, so it is the only announcement.
	open := func(a, b int) (bool, bool) {
		dependent, _ := scriptedPredictor(miss)(a, b)
		return dependent, a == 1 && b == 3
	}
	_, pairs = ldClosure(retained, open, pvals)
	openPairs := append(append([][2]int(nil), missPath...), detour...)
	if !equalPairs(pairs, openPairs) {
		t.Fatalf("open closure %v, want %v", pairs, openPairs)
	}
	got, examined, announcements = recordedScan(t, retained, pool, open, ldStates{}, nil, pvals, 1e-5)
	if !equalInts(got, []int{1, 5, 6}) || !equalPairs(examined, path) {
		t.Fatalf("open: got %v examining %v, want [1 5 6] examining %v", got, examined, path)
	}
	if len(announcements) != 1 || !equalPairs(announcements[0], openPairs) {
		t.Fatalf("open: announced %v, want one announcement of %v", announcements, openPairs)
	}
}

// TestLDPhaseBatchMatchesLDPhaseUnderAnyPredictor is the protocol law "a
// wrong LD predictor changes message counts but never L″": whatever the
// predictor decides, and whether it calls every pair open or none,
// LDPhaseBatch returns LDPhase's list, examines LDPhase's pairs, and never
// examines a pair it has not announced (recordedScan checks that).
func TestLDPhaseBatchMatchesLDPhaseUnderAnyPredictor(t *testing.T) {
	type scan struct {
		name     string
		retained []int
		pool     PairStatsFunc
		exact    func(a, b int) bool
		band     PairPredictor // the assessment's predictor, where there is a panel
		pvals    []float64
		cutoff   float64
	}
	var scans []scan

	// Scripted tables: random dependence between nearby SNPs, random ranking.
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		var retained []int
		for snp := 0; len(retained) < n; snp += 1 + rng.Intn(3) {
			retained = append(retained, snp)
		}
		last := retained[n-1]
		dep := map[[2]int]bool{}
		for i, a := range retained {
			for _, b := range retained[i+1 : min(n, i+6)] {
				if rng.Float64() < 0.4 {
					dep[[2]int{a, b}] = true
				}
			}
		}
		pvals := make([]float64, last+1)
		for i := range pvals {
			pvals[i] = float64(rng.Intn(4)) / 4 // ties on purpose
		}
		exact := func(a, b int) bool { return dep[[2]int{a, b}] || dep[[2]int{b, a}] }
		scans = append(scans, scan{fmt.Sprintf("scripted/%d", seed), retained, scriptedPairs(1000, dep), exact, nil, pvals, 1e-5})
	}

	// Seeded cohorts: the pooled statistics of case plus reference genomes,
	// with the reference panel alone as the "exact" decider's stand-in.
	for _, seed := range []int64{17, 23, 42} {
		cohort := testCohort(t, 200, 400, seed)
		cfg := DefaultConfig()
		caseN, refN := int64(cohort.Case.N()), int64(cohort.Reference.N())
		retained, err := MAFPhase(cohort.Case.AlleleCounts(), caseN, cohort.Reference.AlleleCounts(), refN, cfg.MAFCutoff)
		if err != nil {
			t.Fatal(err)
		}
		pvals, err := AssociationPValues(cohort.Case.AlleleCounts(), caseN, cohort.Reference.AlleleCounts(), refN, cfg.PaperChiSquare)
		if err != nil {
			t.Fatal(err)
		}
		refPair := cohort.Reference.PairStats
		pool := func(a, b int) (genome.PairStats, error) {
			return refPair(a, b).Add(cohort.Case.PairStats(a, b)), nil
		}
		onReference := func(a, b int) bool {
			dependent, err := ldDependent(refPair(a, b), cfg.LDCutoff)
			return err == nil && dependent
		}
		band := func(a, b int) (bool, bool) { return bandDecision(refPair(a, b), refN+caseN, cfg.LDCutoff) }
		scans = append(scans, scan{fmt.Sprintf("cohort/%d", seed), retained, pool, onReference, band, pvals, cfg.LDCutoff})
	}

	for _, sc := range scans {
		var lazy [][2]int
		want, err := LDPhase(sc.retained, func(a, b int) (genome.PairStats, error) {
			lazy = append(lazy, [2]int{a, b})
			return sc.pool(a, b)
		}, sc.pvals, sc.cutoff)
		if err != nil {
			t.Fatalf("%s: LDPhase: %v", sc.name, err)
		}
		rng := rand.New(rand.NewSource(99))
		deciders := map[string]func(a, b int) bool{
			"exact":              sc.exact,
			"always-dependent":   func(a, b int) bool { return true },
			"always-independent": func(a, b int) bool { return false },
			"inverted":           func(a, b int) bool { return !sc.exact(a, b) },
			"random":             func(a, b int) bool { return rng.Intn(2) == 0 },
		}
		predictors := map[string]PairPredictor{}
		for name, decide := range deciders {
			predictors[name+"/none-open"] = settled(decide)
			predictors[name+"/all-open"] = func(a, b int) (bool, bool) { return decide(a, b), true }
		}
		if sc.band != nil {
			predictors["band"] = sc.band
		}
		// Both from scratch and from a closure some other predictor had
		// announced, as the collusion combinations share one.
		shared, sharedPairs := ldClosure(sc.retained, settled(sc.exact), sc.pvals)
		for name, predict := range predictors {
			for _, pre := range []bool{false, true} {
				var announced ldStates
				var announcedPairs [][2]int
				if pre {
					announced, announcedPairs = shared, sharedPairs
				}
				got, examined, _ := recordedScan(t, sc.retained, sc.pool, predict, announced, announcedPairs, sc.pvals, sc.cutoff)
				if !equalInts(got, want) {
					t.Errorf("%s/%s: got %v, LDPhase %v", sc.name, name, got, want)
				}
				if !equalPairs(examined, lazy) {
					t.Errorf("%s/%s: examined %v, LDPhase examined %v", sc.name, name, examined, lazy)
				}
			}
		}
	}
}

func TestLDPhaseBatchPropagatesPrefetchErrors(t *testing.T) {
	retained := []int{1, 2, 3}
	dep := map[[2]int]bool{{1, 2}: true}
	pvals := []float64{0, 0.01, 0.5, 0.6}
	wantErr := errors.New("member offline")
	prefetch := func([][2]int) error { return wantErr }
	if _, err := LDPhaseBatch(retained, scriptedPairs(1000, dep), scriptedPredictor(dep), prefetch, ldStates{}, pvals, 1e-5); !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want prefetch error", err)
	}
}

func TestLDPhasePropagatesPairErrors(t *testing.T) {
	wantErr := errors.New("member offline")
	pool := func(a, b int) (genome.PairStats, error) { return genome.PairStats{}, wantErr }
	if _, err := LDPhase([]int{0, 1}, pool, []float64{0.5, 0.5}, 1e-5); !errors.Is(err, wantErr) {
		t.Fatalf("got %v", err)
	}
}

func TestLRPhaseMapsBackToOriginalIndices(t *testing.T) {
	cols := []int{10, 20, 30}
	caseLR := lrtest.NewBitMatrix(4, 3)
	refLR := lrtest.NewBitMatrix(4, 3)
	// All-zero matrices: no identification power, everything is safe.
	zero := lrtest.LogRatios{Minor: make([]float64, 3), Major: make([]float64, 3)}
	safe, power, err := LRPhaseBit(cols, []*lrtest.BitMatrix{caseLR}, zero, refLR, lrtest.DefaultParams(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if power != 0 {
		t.Errorf("power %v, want 0", power)
	}
	if !equalInts(safe, cols) {
		t.Fatalf("safe %v, want %v", safe, cols)
	}
	if _, _, err := LRPhaseBit([]int{1, 2}, []*lrtest.BitMatrix{caseLR}, zero, refLR, lrtest.DefaultParams(), nil, nil); err == nil {
		t.Error("column-count mismatch must fail")
	}
}

func TestIntersectSorted(t *testing.T) {
	cases := []struct {
		in   [][]int
		want []int
	}{
		{nil, nil},
		{[][]int{{1, 2, 3}}, []int{1, 2, 3}},
		{[][]int{{1, 2, 3}, {2, 3, 4}}, []int{2, 3}},
		{[][]int{{1, 2, 3}, {2, 3, 4}, {3}}, []int{3}},
		{[][]int{{1}, {2}}, []int{}},
		{[][]int{{}, {1, 2}}, []int{}},
	}
	for i, tc := range cases {
		got := IntersectSorted(tc.in...)
		if len(got) != len(tc.want) {
			t.Fatalf("case %d: got %v, want %v", i, got, tc.want)
		}
		for j := range tc.want {
			if got[j] != tc.want[j] {
				t.Fatalf("case %d: got %v, want %v", i, got, tc.want)
			}
		}
	}
}

// Property: intersection is commutative, idempotent, and bounded by its
// smallest operand — the algebra the collusion-tolerance correctness rests on.
func TestQuickIntersectSortedProperties(t *testing.T) {
	normalize := func(raw []uint8) []int {
		seen := map[int]bool{}
		for _, v := range raw {
			seen[int(v%50)] = true
		}
		out := make([]int, 0, len(seen))
		for v := range seen {
			out = append(out, v)
		}
		sort.Ints(out)
		return out
	}
	f := func(rawA, rawB []uint8) bool {
		a := normalize(rawA)
		b := normalize(rawB)
		ab := IntersectSorted(a, b)
		ba := IntersectSorted(b, a)
		if !equalInts(ab, ba) {
			return false
		}
		if !equalInts(IntersectSorted(a, a), a) {
			return false
		}
		if len(ab) > len(a) || len(ab) > len(b) {
			return false
		}
		inB := map[int]bool{}
		for _, v := range b {
			inB[v] = true
		}
		for _, v := range ab {
			if !inB[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectSortedDoesNotMutateInput(t *testing.T) {
	a := []int{1, 2, 3}
	b := []int{2, 3}
	_ = IntersectSorted(a, b)
	if !equalInts(a, []int{1, 2, 3}) {
		t.Fatal("input mutated")
	}
}

func TestFrequenciesSubset(t *testing.T) {
	counts := []int64{10, 20, 30, 40}
	got := Frequencies(counts, 100, []int{3, 0})
	if got[0] != 0.4 || got[1] != 0.1 {
		t.Fatalf("got %v", got)
	}
	zero := Frequencies(counts, 0, []int{1})
	if zero[0] != 0 || math.IsNaN(zero[0]) {
		t.Fatalf("zero population: %v", zero)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.MAFCutoff = 1.2
	if err := bad.Validate(); err == nil {
		t.Error("MAF cutoff > 1 must fail")
	}
	bad = DefaultConfig()
	bad.LDCutoff = 0
	if err := bad.Validate(); err == nil {
		t.Error("LD cutoff 0 must fail")
	}
	bad = DefaultConfig()
	bad.LR.Alpha = 2
	if err := bad.Validate(); err == nil {
		t.Error("bad LR params must fail")
	}
}

func TestCollusionPolicyValidate(t *testing.T) {
	if err := (CollusionPolicy{F: 0}).Validate(3); err != nil {
		t.Errorf("f=0: %v", err)
	}
	if err := (CollusionPolicy{F: 2}).Validate(3); err != nil {
		t.Errorf("f=2,g=3: %v", err)
	}
	if err := (CollusionPolicy{F: 3}).Validate(3); err == nil {
		t.Error("f=g must fail")
	}
	if err := (CollusionPolicy{F: -1}).Validate(3); err == nil {
		t.Error("negative f must fail")
	}
	if err := (CollusionPolicy{Conservative: true}).Validate(1); err == nil {
		t.Error("conservative with g=1 must fail")
	}
	if err := (CollusionPolicy{Conservative: true}).Validate(2); err != nil {
		t.Errorf("conservative g=2: %v", err)
	}
	if err := (CollusionPolicy{}).Validate(0); err == nil {
		t.Error("empty federation must fail")
	}
}

// BenchmarkLDPhase prices one Phase 2 as the assessment driver runs it — the
// closure over the reference panel's band of pooled sizes, the batched
// fetches from in-process members with an empty pair table, and the exact
// scans — at fed3_base's shape and at a tenth of it (check.sh's smoke): three
// members without collusion, and (_g5) fed5_collusion's five members under
// the conservative policy, 31 combinations whose collusion chains run on
// GOMAXPROCS workers. announcements/op and pairs-announced/op are what the
// first member is asked: over a network the first is round trips and the
// second sets the bytes. At full size both read 1 announcement, of 4,592
// pairs (G=3) and 4,447 (_g5); the single-path predictor before the closure
// needed 11 announcements for the same pairs.
func BenchmarkLDPhase(b *testing.B) {
	for _, shape := range []struct{ snps, genomes int }{{10000, 14860}, {1000, 1486}} {
		for _, fed := range []struct {
			suffix string
			g      int
			policy CollusionPolicy
		}{{"", 3, CollusionPolicy{}}, {"_g5", 5, CollusionPolicy{Conservative: true}}} {
			b.Run(fmt.Sprintf("%dx%d%s", shape.snps, shape.genomes, fed.suffix), func(b *testing.B) {
				cohort := testCohort(b, shape.snps, shape.genomes, 42)
				shards := shardsOf(b, cohort, fed.g)
				pool := defaultWorkPool()
				plan, err := buildLatticePlan(len(shards), fed.policy, pool.size())
				if err != nil {
					b.Fatal(err)
				}
				var asked *countingBatchMember
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					run, counters := newPhase2Run(b, cohort.Reference, shards, pool)
					asked = counters[0]
					lPrime, _, err := run.phase1MAF(plan)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, _, err := run.phase2LD(plan, lPrime); err != nil {
						b.Fatal(err)
					}
				}
				if asked.singles != 0 {
					b.Fatalf("%d single-pair request(s) escaped the batch path", asked.singles)
				}
				b.ReportMetric(float64(asked.batches), "announcements/op")
				b.ReportMetric(float64(asked.pairs), "pairs-announced/op")
			})
		}
	}
}

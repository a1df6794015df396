package core

import (
	"fmt"
	"math"
	"testing"

	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
)

// densePhase3 replicates the seed implementation's Phase 3 exactly: per
// evaluation subset, merge dense member LR-matrices, rebuild the dense
// reference LR-matrix, derive the admission order from the full-membership
// evaluation, run the dense greedy search, and intersect. It is the golden
// baseline the bit-packed kernel must match bit for bit.
func densePhase3(t *testing.T, shards []*genome.Matrix, reference *genome.Matrix, subsets [][]int, lDouble []int, params lrtest.Params) ([][]int, []int, float64) {
	t.Helper()
	counts := make([][]int64, len(shards))
	for i, s := range shards {
		counts[i] = s.AlleleCounts()
	}
	refCounts := reference.AlleleCounts()
	refN := int64(reference.N())

	var order []int
	var fullPower float64
	per := make([][]int, len(subsets))
	for c, subset := range subsets {
		sum := make([]int64, reference.L())
		var n int64
		for _, i := range subset {
			for l, v := range counts[i] {
				sum[l] += v
			}
			n += int64(shards[i].N())
		}
		caseFreq := Frequencies(sum, n, lDouble)
		refFreq := Frequencies(refCounts, refN, lDouble)

		parts := make([]*lrtest.Matrix, len(subset))
		for slot, i := range subset {
			lr, err := BuildLRMatrix(shards[i], lDouble, caseFreq, refFreq)
			if err != nil {
				t.Fatalf("dense member %d LR-matrix: %v", i, err)
			}
			parts[slot] = lr
		}
		merged, err := lrtest.Merge(parts...)
		if err != nil {
			t.Fatalf("dense merge: %v", err)
		}
		refLR, err := BuildLRMatrix(reference, lDouble, caseFreq, refFreq)
		if err != nil {
			t.Fatalf("dense reference LR-matrix: %v", err)
		}
		if c == 0 {
			order = lrtest.DiscriminabilityOrder(merged, refLR)
		}
		safe, power, err := LRPhaseOrdered(lDouble, merged, refLR, params, order)
		if err != nil {
			t.Fatalf("dense LR phase: %v", err)
		}
		per[c] = safe
		if c == 0 {
			fullPower = power
		}
	}
	return per, IntersectSorted(per...), fullPower
}

// goldenCase is one Phase-3 fixture checked against densePhase3.
type goldenCase struct {
	seed   int64
	snps   int
	caseN  int
	g      int
	policy CollusionPolicy
}

// checkAgainstDense runs the assessment on tc in both oblivious modes and
// requires the lattice's selection, every combination's safe list and the
// released power to equal densePhase3's bit for bit.
func checkAgainstDense(t *testing.T, tc goldenCase) {
	t.Helper()
	for _, oblivious := range []bool{false, true} {
		label := fmt.Sprintf("seed=%d g=%d policy=%+v oblivious=%v", tc.seed, tc.g, tc.policy, oblivious)
		cohort := testCohort(t, tc.snps, tc.caseN, tc.seed)
		shards := shardsOf(t, cohort, tc.g)
		cfg := DefaultConfig()
		cfg.LR.Oblivious = oblivious

		rep, err := RunDistributed(shards, cohort.Reference, cfg, tc.policy)
		if err != nil {
			t.Fatalf("%s: RunDistributed: %v", label, err)
		}
		if len(rep.Selection.AfterLD) == 0 {
			t.Fatalf("%s: degenerate test data, nothing survived LD", label)
		}

		subsets, err := evaluationSubsets(tc.g, tc.policy)
		if err != nil {
			t.Fatal(err)
		}
		per, safe, power := densePhase3(t, shards, cohort.Reference, subsets, rep.Selection.AfterLD, cfg.LR)

		if !equalInts(rep.Selection.Safe, safe) {
			t.Errorf("%s: lattice safe set %v != dense %v", label, rep.Selection.Safe, safe)
		}
		if math.Float64bits(rep.Selection.Power) != math.Float64bits(power) {
			t.Errorf("%s: lattice power %v != dense %v", label, rep.Selection.Power, power)
		}
		if len(rep.PerCombination) != len(per) {
			t.Fatalf("%s: %d combinations, dense has %d", label, len(rep.PerCombination), len(per))
		}
		for c := range per {
			if !equalInts(rep.PerCombination[c].Safe, per[c]) {
				t.Errorf("%s: combination %d: lattice %v != dense %v", label, c, rep.PerCombination[c].Safe, per[c])
			}
		}
	}
}

// TestPhase3BitKernelGolden pins the bit-packed incremental kernel (genotype
// patterns shipped once, stacked and reskinned per combination, quickselect
// thresholds, reskinned reference pattern) to the seed's dense Phase 3:
// byte-identical safe subsets and the identical released power, across
// seeds, shard counts, collusion policies and both oblivious modes.
func TestPhase3BitKernelGolden(t *testing.T) {
	for _, tc := range []goldenCase{
		{seed: 5, snps: 120, caseN: 300, g: 2, policy: CollusionPolicy{}},
		{seed: 9, snps: 140, caseN: 360, g: 3, policy: CollusionPolicy{F: 2}},
		{seed: 29, snps: 100, caseN: 280, g: 4, policy: CollusionPolicy{Conservative: true}},
	} {
		checkAgainstDense(t, tc)
	}
}

package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
)

// densePhase3 is Phase 3 as PAPER.md states it, written for tests only and
// sharing no code with the bit-packed kernel. Per evaluation subset: the
// pooled case frequencies of the subset's members and the reference
// frequencies give Eq. 1's log ratios; every member row (members in subset
// order) and every reference row gets its per-SNP contributions; columns are
// considered in discriminability order — |case mean − reference mean|
// ascending, index tie-break, taken from the full federation and shared by
// every combination — and admitted while the LR-test's power at α stays
// below β, with every candidate's scores accumulated in admission order and
// τ taken from a full sort of the reference scores. The safe sets are then
// intersected. It ignores Params.Oblivious: both modes must select the same
// SNPs.
func densePhase3(t *testing.T, shards []*genome.Matrix, reference *genome.Matrix, subsets [][]int, lDouble []int, params lrtest.Params) ([][]int, []int, float64) {
	t.Helper()
	refFreq := Frequencies(reference.AlleleCounts(), int64(reference.N()), lDouble)
	var order []int
	var fullPower float64
	per := make([][]int, len(subsets))
	for c, subset := range subsets {
		sum := make([]int64, reference.L())
		var n int64
		for _, i := range subset {
			for l, v := range shards[i].AlleleCounts() {
				sum[l] += v
			}
			n += int64(shards[i].N())
		}
		ratios, err := lrtest.NewLogRatios(Frequencies(sum, n, lDouble), refFreq)
		if err != nil {
			t.Fatalf("log ratios: %v", err)
		}
		var caseLR [][]float64
		for _, i := range subset {
			caseLR = append(caseLR, eqOneRows(shards[i], lDouble, ratios)...)
		}
		refLR := eqOneRows(reference, lDouble, ratios)
		if c == 0 {
			order = discriminabilityOrder(caseLR, refLR, len(lDouble))
		}
		var safe []int
		caseScores := make([]float64, len(caseLR))
		refScores := make([]float64, len(refLR))
		for _, j := range order {
			candCase, candRef := addColumn(caseScores, caseLR, j), addColumn(refScores, refLR, j)
			sorted := append([]float64(nil), candRef...)
			sort.Float64s(sorted)
			idx := min(max(int(math.Ceil(float64(len(sorted))*(1-params.Alpha)))-1, 0), len(sorted)-1)
			if power := lrtest.Power(candCase, sorted[idx]); power < params.PowerThreshold {
				caseScores, refScores = candCase, candRef
				safe = append(safe, j)
				if c == 0 {
					fullPower = power
				}
			}
		}
		sort.Ints(safe)
		per[c] = make([]int, len(safe))
		for k, j := range safe {
			per[c][k] = lDouble[j]
		}
	}
	return per, IntersectSorted(per...), fullPower
}

// eqOneRows returns g's Eq. 1 contributions over cols, one row per
// individual.
func eqOneRows(g *genome.Matrix, cols []int, ratios lrtest.LogRatios) [][]float64 {
	rows := make([][]float64, g.N())
	for i := range rows {
		rows[i] = make([]float64, len(cols))
		for j, l := range cols {
			if g.Get(i, l) {
				rows[i][j] = ratios.Minor[j]
			} else {
				rows[i][j] = ratios.Major[j]
			}
		}
	}
	return rows
}

// discriminabilityOrder ranks the columns by |case mean − reference mean|
// ascending, index tie-break; each mean sums its rows in order.
func discriminabilityOrder(caseLR, refLR [][]float64, cols int) []int {
	mean := func(rows [][]float64, j int) float64 {
		var s float64
		for _, r := range rows {
			s += r[j]
		}
		return s / float64(len(rows))
	}
	order := make([]int, cols)
	dist := make([]float64, cols)
	for j := range order {
		order[j] = j
		dist[j] = math.Abs(mean(caseLR, j) - mean(refLR, j))
	}
	sort.Slice(order, func(a, b int) bool {
		if da, db := dist[order[a]], dist[order[b]]; da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	return order
}

// addColumn returns scores plus column j of rows.
func addColumn(scores []float64, rows [][]float64, j int) []float64 {
	out := make([]float64, len(scores))
	for i, r := range rows {
		out[i] = scores[i] + r[j]
	}
	return out
}

// goldenCase is one Phase-3 fixture checked against densePhase3.
type goldenCase struct {
	seed   int64
	snps   int
	caseN  int
	g      int
	policy CollusionPolicy
	// beta, when set, replaces the power threshold β, and every combination
	// must then reject at least one SNP.
	beta float64
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
		if tc.beta != 0 {
			cfg.LR.PowerThreshold = tc.beta
		}

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
			if tc.beta != 0 && len(rep.PerCombination[c].Safe) >= len(rep.Selection.AfterLD) {
				t.Errorf("%s: combination %d admits all %d SNPs at β=%v", label, c, len(rep.Selection.AfterLD), tc.beta)
			}
		}
	}
}

// TestPhase3BitKernelGolden pins the bit-packed incremental kernel (genotype
// patterns shipped once, stacked and reskinned per combination, quickselect
// thresholds, reskinned reference pattern) to the dense Phase 3 of
// densePhase3: byte-identical safe subsets and the identical released power,
// across seeds, shard counts, collusion policies and both oblivious modes.
// The cases with a lowered β reject SNPs in every combination.
func TestPhase3BitKernelGolden(t *testing.T) {
	for _, tc := range []goldenCase{
		{seed: 5, snps: 120, caseN: 300, g: 2, policy: CollusionPolicy{}},
		{seed: 9, snps: 140, caseN: 360, g: 3, policy: CollusionPolicy{F: 2}},
		{seed: 29, snps: 100, caseN: 280, g: 4, policy: CollusionPolicy{Conservative: true}},
		{seed: 9, snps: 400, caseN: 300, g: 3, policy: CollusionPolicy{Conservative: true}, beta: 0.1},
		{seed: 5, snps: 400, caseN: 300, g: 3, policy: CollusionPolicy{F: 1}, beta: 0.05},
	} {
		checkAgainstDense(t, tc)
	}
}

package lrtest_test

import (
	"math"
	"testing"

	"gendpr/internal/core"
	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
)

// TestAssessmentMatchesGoLoops runs one conservative G=5 assessment — 31
// presumed-honest combinations, each a Phase-3 selection over merged and
// reskinned patterns — on the AVX-512 kernels and on the Go loops, and
// requires identical selections, per-combination records and powers, bit
// for bit.
func TestAssessmentMatchesGoLoops(t *testing.T) {
	if !lrtest.HasAVX512 {
		t.Skip("no AVX-512F support: only the Go loops run on this machine")
	}
	cohort, err := genome.Generate(genome.DefaultGeneratorConfig(1500, 400, 3))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := cohort.Partition(5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(vector bool) *core.Report {
		defer lrtest.SetVectorKernels(lrtest.SetVectorKernels(vector))
		providers := make([]core.Provider, len(shards))
		for i, s := range shards {
			providers[i] = core.NewLocalMember(s)
		}
		rep, err := core.RunAssessment(providers, cohort.Reference, core.DefaultConfig(), core.CollusionPolicy{Conservative: true}, nil, core.AssessmentOptions{})
		if err != nil {
			t.Fatalf("vector %v: %v", vector, err)
		}
		return rep
	}
	scalar, vector := run(false), run(true)
	if scalar.Combinations != 31 || vector.Combinations != 31 {
		t.Fatalf("combinations %d (Go) / %d (AVX-512), want 31", scalar.Combinations, vector.Combinations)
	}
	same := func(a, b core.Selection) bool {
		return a.Equal(b) && math.Float64bits(a.Power) == math.Float64bits(b.Power)
	}
	if !same(scalar.Selection, vector.Selection) {
		t.Errorf("selection %v power %v (Go) vs %v power %v (AVX-512)",
			scalar.Selection, scalar.Selection.Power, vector.Selection, vector.Selection.Power)
	}
	if len(scalar.PerCombination) != len(vector.PerCombination) {
		t.Fatalf("per-combination records %d (Go) vs %d (AVX-512)", len(scalar.PerCombination), len(vector.PerCombination))
	}
	for c := range scalar.PerCombination {
		if !same(scalar.PerCombination[c], vector.PerCombination[c]) {
			t.Errorf("combination %d: %v power %v (Go) vs %v power %v (AVX-512)", c,
				scalar.PerCombination[c], scalar.PerCombination[c].Power, vector.PerCombination[c], vector.PerCombination[c].Power)
		}
	}
	if len(scalar.Selection.Safe) == 0 {
		t.Error("degenerate cohort: nothing selected")
	}
}

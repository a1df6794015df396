package lrtest

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// rowRange is rows [start, start+n) of a genotype source.
type rowRange struct {
	g        Genotypes
	start, n int
}

func (r rowRange) N() int            { return r.n }
func (r rowRange) L() int            { return r.g.L() }
func (r rowRange) Get(i, j int) bool { return r.g.Get(r.start+i, j) }

// TestPartsMatchConcatenation holds the case side given as parts — member
// patterns decoded through one set of log ratios — against the oracle, their
// concatenation reskinned with the same ratios on the Go loops: the column
// means, the discriminability order and the selection (safe set, iteration
// count and Power bits) in both oblivious modes, on both kernel paths (the
// oblivious search has no vector kernel, so it runs on the Go path). Part
// heights sit on both sides of the 64-row word edge and include the
// fed5_collusion member's 2,972, so every part but one ends in a partial
// word the Go tail finishes; 21 columns make the means' last lane group
// overlap the one before it.
func TestPartsMatchConcatenation(t *testing.T) {
	heights := []int{1, 63, 64, 65, 130, 2972}
	const cols = 21
	total := 0
	for _, h := range heights {
		total += h
	}
	cohort, ratios := testRatios(t, cols, total, 31)
	parts := make([]*BitMatrix, len(heights))
	start := 0
	for i, h := range heights {
		p, err := BuildBitPattern(rowRange{cohort.Case, start, h})
		if err != nil {
			t.Fatal(err)
		}
		parts[i], start = p, start+h
	}
	refPattern, err := BuildBitPattern(cohort.Reference)
	if err != nil {
		t.Fatal(err)
	}
	refLR, err := refPattern.Reskin(ratios)
	if err != nil {
		t.Fatal(err)
	}

	// Every part alone, a word-aligned pair, the collusion chain's shape of
	// all but one, and all of them, each in canonical order.
	subsets := [][]int{{0, 1, 2, 3, 4, 5}, {1, 3, 4, 5}, {2, 4}, {0, 5}}
	for i := range heights {
		subsets = append(subsets, []int{i})
	}
	paths := []bool{false}
	if hasAVX512 {
		paths = append(paths, true)
	}
	params := func(oblivious bool) Params {
		return Params{Alpha: 0.1, PowerThreshold: 0.03, Oblivious: oblivious}
	}
	rejected := 0
	for _, sub := range subsets {
		var subParts []*BitMatrix
		for _, i := range sub {
			subParts = append(subParts, parts[i])
		}
		cat, err := ConcatBitPatterns(subParts...)
		if err != nil {
			t.Fatal(err)
		}
		caseLR, err := cat.Reskin(ratios)
		if err != nil {
			t.Fatal(err)
		}
		// Oblivious mode scores on the Go loops alone and costs a sorting
		// network per candidate: it runs on the Go path, over the two
		// subsets of four parts or more.
		modes := []bool{false}
		if len(sub) >= 4 {
			modes = append(modes, true)
		}
		restore := setKernels(false)
		wantMeans := columnMeans([]*BitMatrix{caseLR}, cols)
		wantOrder := DiscriminabilityOrderBit(caseLR, refLR)
		want := make([]Result, len(modes))
		for m, oblivious := range modes {
			if want[m], err = NewSelector().SelectSafeBitWithOrder(caseLR, refLR, params(oblivious), wantOrder); err != nil {
				t.Fatal(err)
			}
		}
		restore()
		rejected += want[0].Iterations - len(want[0].Safe)

		for _, vector := range paths {
			label := fmt.Sprintf("parts %v, vector %v", sub, vector)
			restore := setKernels(vector)
			views, err := skinParts(subParts, ratios)
			if err != nil {
				t.Fatal(err)
			}
			if got := columnMeans(views, cols); !sameBits(got, wantMeans) {
				t.Fatalf("%s: column means differ from the concatenation's", label)
			}
			order, err := DiscriminabilityOrderParts(subParts, ratios, refLR)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(order, wantOrder) {
				t.Fatalf("%s: discriminability order %v, concatenation %v", label, order, wantOrder)
			}
			for m, oblivious := range modes {
				if oblivious && vector {
					continue
				}
				got, err := NewSelector().SelectSafeParts(subParts, ratios, refLR, params(oblivious), order)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Safe, want[m].Safe) || got.Iterations != want[m].Iterations ||
					math.Float64bits(got.Power) != math.Float64bits(want[m].Power) {
					t.Fatalf("%s, oblivious %v: %d safe/%d iters/power %v, concatenation %d/%d/%v", label, oblivious,
						len(got.Safe), got.Iterations, got.Power, len(want[m].Safe), want[m].Iterations, want[m].Power)
				}
			}
			restore()
		}
	}
	if rejected == 0 {
		t.Fatal("degenerate fixture: no selection rejected a column")
	}
}

// TestSelectSafePartsRejectsShapes checks the parts' and ratios' column
// counts against each other and the reference.
func TestSelectSafePartsRejectsShapes(t *testing.T) {
	ratios := patRatios(4, 1)
	ref := NewBitMatrix(5, 4)
	good := NewBitMatrix(3, 4)
	for name, tc := range map[string]struct {
		parts  []*BitMatrix
		ratios LogRatios
		ref    *BitMatrix
	}{
		"part columns":      {[]*BitMatrix{good, NewBitMatrix(3, 5)}, ratios, ref},
		"ratio lengths":     {[]*BitMatrix{good}, LogRatios{Minor: ratios.Minor, Major: ratios.Major[:3]}, ref},
		"reference columns": {[]*BitMatrix{good}, ratios, NewBitMatrix(5, 3)},
	} {
		if _, err := NewSelector().SelectSafeParts(tc.parts, tc.ratios, tc.ref, DefaultParams(), []int{0, 1, 2, 3}); err == nil {
			t.Errorf("%s: selection accepted mismatched shapes", name)
		}
		if _, err := DiscriminabilityOrderParts(tc.parts, tc.ratios, tc.ref); err == nil {
			t.Errorf("%s: discriminability order accepted mismatched shapes", name)
		}
	}
}

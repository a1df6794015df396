package lrtest

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gendpr/internal/genome"
)

// fromGenome returns g's columns cols decoded through ratios: a view over
// g's own words when view is set (ColumnSpans), else the copy Gather makes.
func fromGenome(t *testing.T, g *genome.Matrix, cols []int, ratios LogRatios, view bool) *BitMatrix {
	t.Helper()
	var words []uint64
	var offs []int
	var err error
	if view {
		words, offs, err = g.ColumnSpans(cols)
	} else {
		words, err = g.Gather(cols)
	}
	if err != nil {
		t.Fatal(err)
	}
	m, err := BitFromColumnWords(g.N(), words, offs, ratios)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestViewMatchesGatheredCopy holds matrices that view scattered, unsorted
// columns of a genome.Matrix where they lie against the copy Gather makes of
// the same columns, as Phase 3 holds the reference pattern against the panel:
// the cells, column popcounts and pattern wire bytes, the column means bit
// for bit, the discriminability order and the selection (safe set,
// iterations, Power bits) with the view on the reference side, the case side
// or both, in both oblivious modes, on both kernel paths. Row counts (301
// case, 333 reference) end in a partial word the Go tail finishes; 5 columns
// leave the means to the Go loop alone, 8 fill one vector lane group and 21
// make its last group overlap the one before.
func TestViewMatchesGatheredCopy(t *testing.T) {
	const snps = 400
	cfg := genome.DefaultGeneratorConfig(snps, 301, 23)
	cfg.ReferenceN = 333
	cohort, err := genome.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	caseFreq := genome.Frequencies(cohort.Case.AlleleCounts(), int64(cohort.Case.N()))
	refFreq := genome.Frequencies(cohort.Reference.AlleleCounts(), int64(cohort.Reference.N()))
	paths := []bool{false}
	if hasAVX512 {
		paths = append(paths, true)
	}
	rng := rand.New(rand.NewSource(5))
	rejected := 0
	for _, ncols := range []int{5, 8, 21} {
		cols := rng.Perm(snps)[:ncols]
		ratios, err := NewLogRatios(subsetFloats(caseFreq, cols), subsetFloats(refFreq, cols))
		if err != nil {
			t.Fatal(err)
		}
		zero := make([]float64, ncols)
		patterns := LogRatios{Minor: zero, Major: zero}
		refCopy := fromGenome(t, cohort.Reference, cols, ratios, false)
		refView := fromGenome(t, cohort.Reference, cols, ratios, true)
		caseCopy := fromGenome(t, cohort.Case, cols, patterns, false)
		caseView := fromGenome(t, cohort.Case, cols, patterns, true)

		if !refView.Equal(refCopy) || !caseView.Equal(caseCopy) {
			t.Fatalf("%d columns: a view decodes other cells than the gathered copy", ncols)
		}
		for j := 0; j < ncols; j++ {
			if refView.ColumnOnes(j) != refCopy.ColumnOnes(j) || caseView.ColumnOnes(j) != caseCopy.ColumnOnes(j) {
				t.Fatalf("%d columns: column %d popcount differs from the gathered copy's", ncols, j)
			}
		}
		if !bytes.Equal(caseView.EncodePatternWire(), caseCopy.EncodePatternWire()) {
			t.Fatalf("%d columns: the view's pattern wire bytes differ from the gathered copy's", ncols)
		}
		if want, got := int64(24*ncols), refView.SizeBytes(); got != want {
			t.Errorf("%d columns: view holds %d B, want %d B of offsets and representatives", ncols, got, want)
		}

		params := func(oblivious bool) Params {
			return Params{Alpha: 0.1, PowerThreshold: 0.03, Oblivious: oblivious}
		}
		restore := setKernels(false)
		caseLR, err := caseCopy.Reskin(ratios)
		if err != nil {
			t.Fatal(err)
		}
		wantCaseMeans := columnMeans([]*BitMatrix{caseLR}, ncols)
		wantRefMeans := columnMeans([]*BitMatrix{refCopy}, ncols)
		wantOrder, err := DiscriminabilityOrderParts([]*BitMatrix{caseCopy}, ratios, refCopy)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Result, 2)
		for m, oblivious := range []bool{false, true} {
			if want[m], err = NewSelector().SelectSafeParts([]*BitMatrix{caseCopy}, ratios, refCopy, params(oblivious), wantOrder); err != nil {
				t.Fatal(err)
			}
		}
		restore()
		rejected += want[0].Iterations - len(want[0].Safe)

		for _, vector := range paths {
			restore := setKernels(vector)
			viewLR, err := caseView.Reskin(ratios)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(columnMeans([]*BitMatrix{viewLR}, ncols), wantCaseMeans) ||
				!sameBits(columnMeans([]*BitMatrix{refView}, ncols), wantRefMeans) {
				t.Fatalf("%d columns, vector %v: a view's column means differ from the gathered copy's", ncols, vector)
			}
			for _, side := range []struct {
				name       string
				caseP, ref *BitMatrix
			}{{"reference view", caseCopy, refView}, {"case view", caseView, refCopy}, {"both views", caseView, refView}} {
				label := fmt.Sprintf("%d columns, vector %v, %s", ncols, vector, side.name)
				order, err := DiscriminabilityOrderParts([]*BitMatrix{side.caseP}, ratios, side.ref)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(order, wantOrder) {
					t.Fatalf("%s: discriminability order %v, gathered copy %v", label, order, wantOrder)
				}
				for m, oblivious := range []bool{false, true} {
					got, err := NewSelector().SelectSafeParts([]*BitMatrix{side.caseP}, ratios, side.ref, params(oblivious), order)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.Safe, want[m].Safe) || got.Iterations != want[m].Iterations ||
						math.Float64bits(got.Power) != math.Float64bits(want[m].Power) {
						t.Fatalf("%s, oblivious %v: %d safe/%d iters/power %v, gathered copy %d/%d/%v", label, oblivious,
							len(got.Safe), got.Iterations, got.Power, len(want[m].Safe), want[m].Iterations, want[m].Power)
					}
				}
			}
			restore()
		}
	}
	if rejected == 0 {
		t.Fatal("degenerate fixture: no selection rejected a column")
	}
}

// TestReskinSharesViewWords checks that reskinning a view shares the viewed
// buffer and the view's offsets instead of copying either, and decodes as
// the reskinned gathered copy does.
func TestReskinSharesViewWords(t *testing.T) {
	cohort, ratios := testRatios(t, 40, 70, 3)
	cols := []int{31, 2, 17, 9}
	sub := LogRatios{Minor: subsetFloats(ratios.Minor, cols), Major: subsetFloats(ratios.Major, cols)}
	words, offs, err := cohort.Reference.ColumnSpans(cols)
	if err != nil {
		t.Fatal(err)
	}
	view, err := BitFromColumnWords(cohort.Reference.N(), words, offs, LogRatios{Minor: make([]float64, 4), Major: make([]float64, 4)})
	if err != nil {
		t.Fatal(err)
	}
	skinned, err := view.Reskin(sub)
	if err != nil {
		t.Fatal(err)
	}
	if &skinned.bits[0] != &words[0] || &skinned.off[0] != &offs[0] {
		t.Fatal("Reskin of a view copied its words or offsets")
	}
	if !skinned.Equal(fromGenome(t, cohort.Reference, cols, sub, false)) {
		t.Fatal("reskinned view decodes other cells than the reskinned gathered copy")
	}
}

// TestBitFromColumnWordsRejectsViewSpans refuses offsets that are missing,
// negative or reach past the buffer.
func TestBitFromColumnWordsRejectsViewSpans(t *testing.T) {
	words := make([]uint64, 6) // three 65-row columns of two words
	ratios := LogRatios{Minor: make([]float64, 2), Major: make([]float64, 2)}
	for name, offs := range map[string][]int{
		"one offset for two columns": {0},
		"negative":                   {0, -1},
		"past the buffer":            {0, 5},
	} {
		if _, err := BitFromColumnWords(65, words, offs, ratios); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := BitFromColumnWords(65, words, []int{4, 0}, ratios); err != nil {
		t.Errorf("in-range offsets: %v", err)
	}
}

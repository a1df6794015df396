package lrtest

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"gendpr/internal/genome"
)

func testRatios(t testing.TB, snps, caseN int, seed int64) (*genome.Cohort, LogRatios) {
	t.Helper()
	cohort, caseFreq, refFreq := buildCohort(t, snps, caseN, seed)
	ratios, err := NewLogRatios(caseFreq, refFreq)
	if err != nil {
		t.Fatal(err)
	}
	return cohort, ratios
}

// selectBit runs the greedy search in the discriminability order, as
// Phase 3 does.
func selectBit(caseLR, refLR *BitMatrix, params Params) (Result, error) {
	return new(Selector).SelectSafeBitWithOrder(caseLR, refLR, params, DiscriminabilityOrderBit(caseLR, refLR))
}

func TestReskinMatchesRebuild(t *testing.T) {
	cohort, ratios := testRatios(t, 60, 280, 19)
	base, err := BuildBit(cohort.Reference, ratios)
	if err != nil {
		t.Fatal(err)
	}
	otherFreq := make([]float64, 60)
	refFreq := make([]float64, 60)
	rng := rand.New(rand.NewSource(5))
	for i := range otherFreq {
		otherFreq[i] = 0.05 + 0.9*rng.Float64()
		refFreq[i] = 0.05 + 0.9*rng.Float64()
	}
	other, err := NewLogRatios(otherFreq, refFreq)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildBit(cohort.Reference, other)
	if err != nil {
		t.Fatal(err)
	}
	got, err := base.Reskin(other)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("Reskin differs from rebuilding with the new ratios")
	}
	if _, err := base.Reskin(LogRatios{Minor: []float64{1}, Major: []float64{2}}); err == nil {
		t.Fatal("shape mismatch must fail")
	}
}

func TestBitMatrixSizeBytes(t *testing.T) {
	bit := NewBitMatrix(1000, 64)
	denseBytes := int64(1000 * 64 * 8)
	if got := bit.SizeBytes(); got >= denseBytes/50 {
		t.Fatalf("bit matrix uses %d bytes, dense %d: expected >=50x saving", got, denseBytes)
	}
}

func TestKthSmallestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		vals := make([]float64, n)
		for i := range vals {
			// Include heavy ties to stress pivot handling.
			vals[i] = float64(rng.Intn(9)) - 3.5
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		k := rng.Intn(n)
		scratch := append([]float64(nil), vals...)
		if got := kthSmallest(scratch, k); math.Float64bits(got) != math.Float64bits(sorted[k]) {
			t.Fatalf("trial %d: kthSmallest(%d)=%v, sorted[%d]=%v", trial, k, got, k, sorted[k])
		}
	}
}

func TestThresholdMatchesSortBased(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(500)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.NormFloat64()
		}
		alpha := []float64{0.01, 0.05, 0.1, 0.5, 0.99}[trial%5]
		want := sortedThreshold(scores, alpha)
		if got := Threshold(scores, alpha); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Threshold=%v, sort-based=%v", trial, got, want)
		}
	}
}

func TestSelectSafeBitValidation(t *testing.T) {
	m := NewBitMatrix(1, 1)
	if _, err := selectBit(m, m, Params{Alpha: 0, PowerThreshold: 0.9}); err == nil {
		t.Error("alpha=0 must fail")
	}
	if _, err := new(Selector).SelectSafeBitWithOrder(NewBitMatrix(1, 2), NewBitMatrix(1, 3), DefaultParams(), []int{0, 1}); err == nil {
		t.Error("column mismatch must fail")
	}
	if _, err := new(Selector).SelectSafeBitWithOrder(m, m, DefaultParams(), []int{0, 0}); err == nil {
		t.Error("bad order must fail")
	}
	res, err := selectBit(NewBitMatrix(0, 0), NewBitMatrix(0, 0), DefaultParams())
	if err != nil || len(res.Safe) != 0 {
		t.Errorf("empty matrix: %v %v", res, err)
	}
}

func TestBitFromColumnWordsAdopts(t *testing.T) {
	// 65 rows: two words per column, one live bit in the second.
	ratios := LogRatios{Minor: []float64{0.5, -0.25}, Major: []float64{-0.125, 2}}
	words := []uint64{^uint64(0), 1, 1, 0}
	m, err := BitFromColumnWords(65, words, nil, ratios)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 65 || m.Cols() != 2 {
		t.Fatalf("shape %dx%d, want 65x2", m.Rows(), m.Cols())
	}
	if got := m.ColumnOnes(0); got != 65 {
		t.Errorf("column 0 has %d set bits, want 65", got)
	}
	if m.At(64, 0) != 0.5 || m.At(0, 1) != -0.25 || m.At(1, 1) != 2 {
		t.Error("cells decode through the wrong representatives")
	}
	ratios.Minor[0] = 99
	if m.At(0, 0) != 0.5 {
		t.Error("matrix aliases the caller's ratio slices")
	}

	for name, bad := range map[string]func() (*BitMatrix, error){
		"short words": func() (*BitMatrix, error) { return BitFromColumnWords(65, words[:3], nil, ratios) },
		"ragged ratios": func() (*BitMatrix, error) {
			return BitFromColumnWords(65, words, nil, LogRatios{Minor: ratios.Minor, Major: ratios.Major[:1]})
		},
		"negative rows":  func() (*BitMatrix, error) { return BitFromColumnWords(-1, nil, nil, LogRatios{}) },
		"words, no cols": func() (*BitMatrix, error) { return BitFromColumnWords(65, words, nil, LogRatios{}) },
	} {
		if _, err := bad(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

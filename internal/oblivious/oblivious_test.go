package oblivious

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSelect64(t *testing.T) {
	if got := Select64(1, 7, 9); got != 7 {
		t.Errorf("Select64(1)=%d", got)
	}
	if got := Select64(0, 7, 9); got != 9 {
		t.Errorf("Select64(0)=%d", got)
	}
	// Only the low bit matters.
	if got := Select64(3, 7, 9); got != 7 {
		t.Errorf("Select64(3)=%d", got)
	}
}

func TestSelectFloat(t *testing.T) {
	if got := SelectFloat(1, 1.5, -2.5); got != 1.5 {
		t.Errorf("SelectFloat(1)=%v", got)
	}
	if got := SelectFloat(0, 1.5, -2.5); got != -2.5 {
		t.Errorf("SelectFloat(0)=%v", got)
	}
	neg := SelectFloat(1, math.Copysign(0, -1), 1)
	if !math.Signbit(neg) {
		t.Error("negative zero not preserved")
	}
}

func TestLessBit(t *testing.T) {
	if LessBit(1, 2) != 1 || LessBit(2, 1) != 0 || LessBit(1, 1) != 0 {
		t.Error("LessBit wrong on ordinary values")
	}
	if LessBit(math.NaN(), 1) != 0 || LessBit(1, math.NaN()) != 0 {
		t.Error("NaN must compare false")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax(3, -1)
	if lo != -1 || hi != 3 {
		t.Errorf("MinMax(3,-1)=%v,%v", lo, hi)
	}
	lo, hi = MinMax(-1, 3)
	if lo != -1 || hi != 3 {
		t.Errorf("MinMax(-1,3)=%v,%v", lo, hi)
	}
	lo, hi = MinMax(5, 5)
	if lo != 5 || hi != 5 {
		t.Errorf("MinMax(5,5)=%v,%v", lo, hi)
	}
}

func TestBitonicSortMatchesStdSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 31, 64, 100, 257} {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		copy(want, v)
		sort.Float64s(want)
		BitonicSort(v)
		for i := range want {
			if v[i] != want[i] {
				t.Fatalf("n=%d: position %d: %v != %v", n, i, v[i], want[i])
			}
		}
	}
}

func TestQuickBitonicSort(t *testing.T) {
	f := func(v []float64) bool {
		for i := range v {
			if math.IsNaN(v[i]) {
				v[i] = 0
			}
		}
		got := make([]float64, len(v))
		copy(got, v)
		BitonicSort(got)
		want := make([]float64, len(v))
		copy(want, v)
		sort.Float64s(want)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// quantile is the oracle the streaming TopK filter must match: the
// q-quantile of the scores (0 < q <= 1) by an oblivious sort followed by a
// fixed-position read. The input is not modified.
func quantile(scores []float64, q float64) float64 {
	if len(scores) == 0 {
		return math.Inf(1)
	}
	sorted := make([]float64, len(scores))
	copy(sorted, scores)
	BitonicSort(sorted)
	idx := int(math.Ceil(float64(len(sorted))*q)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func TestQuantileMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scores := make([]float64, 137)
	for i := range scores {
		scores[i] = rng.NormFloat64() * 10
	}
	orig := make([]float64, len(scores))
	copy(orig, scores)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		got := quantile(scores, q)
		sorted := make([]float64, len(scores))
		copy(sorted, scores)
		sort.Float64s(sorted)
		idx := int(math.Ceil(float64(len(sorted))*q)) - 1
		if idx < 0 {
			idx = 0
		}
		if got != sorted[idx] {
			t.Errorf("q=%v: %v != %v", q, got, sorted[idx])
		}
	}
	for i := range scores {
		if scores[i] != orig[i] {
			t.Fatal("Quantile mutated its input")
		}
	}
	if !math.IsInf(quantile(nil, 0.5), 1) {
		t.Error("empty input must yield +Inf")
	}
}

func TestCountGreater(t *testing.T) {
	scores := []float64{1, 2, 3, 4, 5}
	if got := CountGreater(scores, 2.5); got != 3 {
		t.Errorf("CountGreater=%d, want 3", got)
	}
	if got := CountGreater(scores, 5); got != 0 {
		t.Errorf("CountGreater(=max)=%d, want 0", got)
	}
	if got := CountGreater(nil, 0); got != 0 {
		t.Errorf("empty input: %d", got)
	}
}

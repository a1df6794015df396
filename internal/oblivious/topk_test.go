package oblivious

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(40)
		n := k + rng.Intn(400)
		vals := make([]float64, n)
		for i := range vals {
			// Heavy ties stress the merge network's duplicate handling.
			vals[i] = float64(rng.Intn(13)) - 6
		}
		filt := NewTopK(k)
		// Stream in uneven chunks to exercise block padding.
		for off := 0; off < n; {
			step := 1 + rng.Intn(70)
			if off+step > n {
				step = n - off
			}
			filt.Push(vals[off : off+step])
			off += step
		}
		desc := append([]float64(nil), vals...)
		sort.Sort(sort.Reverse(sort.Float64Slice(desc)))
		for _, j := range []int{1, (k + 1) / 2, k} {
			if got, want := filt.KthLargest(j), desc[j-1]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d (n=%d k=%d): KthLargest(%d)=%v, want %v", trial, n, k, j, got, want)
			}
		}
	}
}

func TestTopKMatchesQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.NormFloat64()
		}
		q := []float64{0.5, 0.9, 0.95, 0.99}[trial%4]
		idx := int(math.Ceil(float64(n)*q)) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		k := n - idx
		filt := NewTopK(k)
		filt.Push(scores)
		if got, want := filt.KthLargest(k), quantile(scores, q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (n=%d q=%v): TopK=%v, Quantile=%v", trial, n, q, got, want)
		}
	}
}

func TestTopKReset(t *testing.T) {
	filt := NewTopK(2)
	filt.Push([]float64{100, 200})
	filt.Reset()
	filt.Push([]float64{1, 2, 3})
	if got := filt.KthLargest(1); got != 3 {
		t.Fatalf("after reset, 1st largest = %v, want 3", got)
	}
	if got := filt.KthLargest(2); got != 2 {
		t.Fatalf("after reset, 2nd largest = %v, want 2", got)
	}
	if !math.IsInf(NewTopK(3).KthLargest(3), -1) {
		t.Fatal("empty filter must report -Inf")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range rank must panic")
		}
	}()
	filt.KthLargest(3)
}

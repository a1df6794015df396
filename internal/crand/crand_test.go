package crand

import (
	"bytes"
	"math"
	"testing"
)

func TestIntnRange(t *testing.T) {
	s := New()
	for _, n := range []int{1, 2, 3, 7, 8, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnBadN(t *testing.T) {
	s := New()
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			s.Intn(n)
		}()
	}
}

func TestFloat64Range(t *testing.T) {
	s := New()
	for i := 0; i < 1000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 || math.IsNaN(v) {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

// TestIntnUniform is a coarse chi-square sanity check: 3 buckets over many
// draws should not deviate wildly from uniform.
func TestIntnUniform(t *testing.T) {
	s := New()
	const n, draws = 3, 30000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	expect := float64(draws) / n
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	// df=2; p<1e-9 would be ~41. Flakiness is negligible.
	if chi2 > 41 {
		t.Fatalf("chi2 %.2f suggests non-uniform Intn: %v", chi2, counts)
	}
}

// TestRejectionSampling feeds a stream whose first 64-bit draw falls in the
// rejected tail for n=3 and verifies the source retries instead of folding
// the biased value in.
func TestRejectionSampling(t *testing.T) {
	// limit for n=3 is (2^64/3)*3 - 1 = 2^64 - 2, so only 2^64-1 rejects.
	buf := append(bytes.Repeat([]byte{0xFF}, 8), 0, 0, 0, 0, 0, 0, 0, 5)
	s := &Source{r: bytes.NewReader(buf)}
	if v := s.Intn(3); v != 5%3 {
		t.Fatalf("rejection sampling: got %d, want %d", v, 5%3)
	}
}

func TestEntropyFailurePanics(t *testing.T) {
	s := &Source{r: bytes.NewReader(nil)} // immediate EOF
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted entropy source did not panic")
		}
	}()
	s.Uint64()
}

func BenchmarkIntn(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Intn(1024 + i%3) // mix of power-of-two and odd ranges
	}
}

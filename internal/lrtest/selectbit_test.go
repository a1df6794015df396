package lrtest

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestAddColumnKthMatchesSort pins the band-selection threshold kernel
// against a full sort of the same candidate scores, across random
// admit/reject sequences: heavy ties, equal representatives (a zero-width
// band), all-zero and all-one columns, the boundary ranks, and row counts on
// both sides of a word edge. tau advances only on admission, so a
// rejected candidate followed by an admitted one checks that it is carried
// correctly.
func TestAddColumnKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// A small value set forces duplicate sums; no value can produce -0.
	reps := []float64{-2.5, -1.25, 0, 0.5, 0.5, 1.75, 3}
	rowChoices := []int{1, 63, 64, 65, 140}
	for trial := 0; trial < 400; trial++ {
		n := rowChoices[trial%len(rowChoices)]
		cols := 2 + rng.Intn(12)
		pattern := NewBitMatrix(n, cols)
		for j := 0; j < cols; j++ {
			switch rng.Intn(5) {
			case 0: // all-zero column: bits stay clear
			case 1: // all-one column
				for i := 0; i < n; i++ {
					pattern.bits[j*pattern.wpc+i>>6] |= 1 << (uint(i) & 63)
				}
			default:
				for i := 0; i < n; i++ {
					if rng.Intn(2) == 1 {
						pattern.bits[j*pattern.wpc+i>>6] |= 1 << (uint(i) & 63)
					}
				}
			}
		}
		ratios := LogRatios{Minor: make([]float64, cols), Major: make([]float64, cols)}
		for j := 0; j < cols; j++ {
			ratios.Major[j] = reps[rng.Intn(len(reps))]
			ratios.Minor[j] = reps[rng.Intn(len(reps))]
			if rng.Intn(5) == 0 {
				ratios.Minor[j] = ratios.Major[j]
			}
		}
		m, err := pattern.Reskin(ratios)
		if err != nil {
			t.Fatal(err)
		}

		k := []int{0, n - 1, rng.Intn(n)}[trial%3]
		base := make([]float64, n)
		cand := make([]float64, n)
		want := make([]float64, n)
		band := make([]float64, n)
		tau := 0.0
		for j := 0; j < cols; j++ {
			got := m.addColumnKth(cand, base, j, k, tau, band)
			for i := 0; i < n; i++ {
				want[i] = base[i] + m.At(i, j)
				if math.Float64bits(cand[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d col %d: row %d scores %v, want %v", trial, j, i, cand[i], want[i])
				}
			}
			sort.Float64s(want)
			if math.Float64bits(got) != math.Float64bits(want[k]) {
				t.Fatalf("trial %d col %d (n=%d k=%d tau=%v): kth=%v, sort gives %v", trial, j, n, k, tau, got, want[k])
			}
			// Column 0 is always rejected and column 1 always admitted, so every
			// trial carries tau across a rejection into an admission.
			if j == 1 || (j > 1 && rng.Intn(2) == 1) {
				base, cand = cand, base
				tau = got
			}
		}
	}
}

// TestSelectorDirectMatchesQuickselect pins the direct-mode band-selection
// admission loop against the copy-and-quickselect oracle, per candidate:
// Threshold copies the reference scores and quickselects the (1−α)-quantile
// from scratch. Same safe set, same iteration count, bit-identical power.
func TestSelectorDirectMatchesQuickselect(t *testing.T) {
	for _, seed := range []int64{3, 17, 51} {
		cohort, ratios := testRatios(t, 60, 240, seed)
		caseBit, err := BuildBit(cohort.Case, ratios)
		if err != nil {
			t.Fatal(err)
		}
		refBit, err := BuildBit(cohort.Reference, ratios)
		if err != nil {
			t.Fatal(err)
		}
		params := DefaultParams()
		order := DiscriminabilityOrderBit(caseBit, refBit)

		got, err := new(Selector).SelectSafeBitWithOrder(caseBit, refBit, params, order)
		if err != nil {
			t.Fatal(err)
		}

		// Reference run, thresholding every candidate from scratch.
		n := refBit.Rows()
		caseScores := make([]float64, caseBit.Rows())
		refScores := make([]float64, n)
		candCase := make([]float64, caseBit.Rows())
		candRef := make([]float64, n)
		want := Result{Safe: []int{}}
		for _, j := range order {
			caseBit.addColumn(candCase, caseScores, j)
			refBit.addColumn(candRef, refScores, j)
			power := Power(candCase, Threshold(candRef, params.Alpha))
			want.Iterations++
			if power < params.PowerThreshold {
				caseScores, candCase = candCase, caseScores
				refScores, candRef = candRef, refScores
				want.Safe = append(want.Safe, j)
				want.Power = power
			}
		}
		sort.Ints(want.Safe)

		if len(got.Safe) != len(want.Safe) || got.Iterations != want.Iterations {
			t.Fatalf("seed %d: got %d safe/%d iters, want %d/%d",
				seed, len(got.Safe), got.Iterations, len(want.Safe), want.Iterations)
		}
		for i := range want.Safe {
			if got.Safe[i] != want.Safe[i] {
				t.Fatalf("seed %d: selection differs at %d: %d vs %d", seed, i, got.Safe[i], want.Safe[i])
			}
		}
		if math.Float64bits(got.Power) != math.Float64bits(want.Power) {
			t.Fatalf("seed %d: power %v vs %v not bit-identical", seed, got.Power, want.Power)
		}
	}
}

// phase3BenchInputs builds LR-matrices at the paper's Phase-3 shape: 390
// candidate columns (what the MAF and LD phases leave of 10,000 SNPs) over
// the 14,860-genome case population and the 13,035-genome reference panel,
// with synthetic genotypes.
func phase3BenchInputs(b testing.TB) (caseLR, refLR *BitMatrix) {
	b.Helper()
	cohort, ratios := testRatios(b, 390, 14860, 42)
	caseLR, err := BuildBit(cohort.Case, ratios)
	if err != nil {
		b.Fatal(err)
	}
	if refLR, err = BuildBit(cohort.Reference, ratios); err != nil {
		b.Fatal(err)
	}
	return caseLR, refLR
}

var benchSink float64

// benchPaths runs fn as a /go sub-benchmark on the Go loops and as an
// /avx512 one on the vector kernels, which is skipped on CPUs without
// AVX-512F, so both paths are priced side by side on the same inputs.
func benchPaths(b *testing.B, fn func(b *testing.B)) {
	for _, p := range []struct {
		name   string
		vector bool
	}{{"go", false}, {"avx512", true}} {
		b.Run(p.name, func(b *testing.B) {
			if p.vector {
				requireAVX512(b)
			}
			defer setKernels(p.vector)()
			fn(b)
		})
	}
}

// phase3BenchParts is phase3BenchInputs with the case side as Phase 3
// scores it: the cohort's cases split into k member patterns of equal
// height, decoded through the log ratios.
func phase3BenchParts(b testing.TB, k int) (parts []*BitMatrix, ratios LogRatios, refLR *BitMatrix) {
	b.Helper()
	cohort, ratios := testRatios(b, 390, 14860, 42)
	n := cohort.Case.N()
	for i := 0; i < k; i++ {
		p, err := BuildBitPattern(rowRange{cohort.Case, i * n / k, (i+1)*n/k - i*n/k})
		if err != nil {
			b.Fatal(err)
		}
		parts = append(parts, p)
	}
	refLR, err := BuildBit(cohort.Reference, ratios)
	if err != nil {
		b.Fatal(err)
	}
	return parts, ratios, refLR
}

// BenchmarkSelectSafeBit prices one direct-mode Phase-3 selection, the unit
// the collusion driver repeats once per presumed-honest combination: over a
// merged case matrix, and as /parts5 over fed5_collusion's full membership,
// five member patterns of 2,972 rows scored where they lie.
func BenchmarkSelectSafeBit(b *testing.B) {
	caseLR, refLR := phase3BenchInputs(b)
	order := DiscriminabilityOrderBit(caseLR, refLR)
	benchPaths(b, func(b *testing.B) {
		sel := NewSelector()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sel.SelectSafeBitWithOrder(caseLR, refLR, DefaultParams(), order)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = res.Power
		}
	})
	b.Run("parts5", func(b *testing.B) {
		parts, ratios, refLR := phase3BenchParts(b, 5)
		order, err := DiscriminabilityOrderParts(parts, ratios, refLR)
		if err != nil {
			b.Fatal(err)
		}
		benchPaths(b, func(b *testing.B) {
			sel := NewSelector()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sel.SelectSafeParts(parts, ratios, refLR, DefaultParams(), order)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = res.Power
			}
		})
	})
}

// BenchmarkAddColumnKth prices the reference-side kernel per candidate
// column, on the accumulated scores a real selection leaves: the band it
// selects over is as narrow as it gets on the protocol path.
func BenchmarkAddColumnKth(b *testing.B) {
	caseLR, refLR := phase3BenchInputs(b)
	res, err := selectBit(caseLR, refLR, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	n := refLR.Rows()
	k := thresholdIndex(n, DefaultParams().Alpha)
	base := scoreSubset(refLR, res.Safe)
	tau := Threshold(base, DefaultParams().Alpha)
	dst, band := make([]float64, n), make([]float64, n)
	benchPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = refLR.addColumnKth(dst, base, i%refLR.Cols(), k, tau, band)
		}
	})
}

// BenchmarkAddColumnCount prices the case-side kernel per candidate column.
func BenchmarkAddColumnCount(b *testing.B) {
	caseLR, _ := phase3BenchInputs(b)
	base := make([]float64, caseLR.Rows())
	dst := make([]float64, caseLR.Rows())
	benchPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = float64(caseLR.addColumnCount(dst, base, i%caseLR.Cols(), 0.25))
		}
	})
}

// BenchmarkDiscriminabilityOrderBit prices the column means and ranking
// that order the admission scan: every column's mean on both sides.
func BenchmarkDiscriminabilityOrderBit(b *testing.B) {
	caseLR, refLR := phase3BenchInputs(b)
	benchPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = float64(DiscriminabilityOrderBit(caseLR, refLR)[0])
		}
	})
}

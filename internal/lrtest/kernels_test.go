package lrtest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The AVX-512 kernels are checked against the Go loops they replace, bit for
// bit: the Go loops are the oracle. Every test here sets useAVX512 itself,
// so none of them runs in parallel.

// setKernels sets useAVX512 and returns a function restoring it.
func setKernels(vector bool) (restore func()) {
	prev := useAVX512
	useAVX512 = vector
	return func() { useAVX512 = prev }
}

// requireAVX512 skips the vector leg, with a log line, on CPUs (or OSes)
// that cannot run it.
func requireAVX512(t testing.TB) {
	t.Helper()
	if !hasAVX512 {
		t.Skip("no AVX-512F support: only the Go loops run on this machine")
	}
}

// kernelRun is everything one pass of the three kernels produces.
type kernelRun struct {
	count, band []float64 // the written scores of each pass
	hits        int
	below, nb   int
	kept        []float64 // band[:nb], sorted
	kth         float64
	means       []float64
}

// runKernels runs the case pass, the band pass, the band's order statistic
// and the column means over column j of m, on the path vector selects.
func runKernels(vector bool, m *BitMatrix, base []float64, j, k int, tau, countTau float64) kernelRun {
	defer setKernels(vector)()
	n := m.Rows()
	r := kernelRun{count: make([]float64, n), band: make([]float64, n)}
	r.hits = m.addColumnCount(r.count, base, j, countTau)
	lo, hi := tau+min(m.zero[j], m.one[j]), tau+max(m.zero[j], m.one[j])
	scratch := make([]float64, n)
	r.below, r.nb = m.addColumnBand(r.band, base, j, lo, hi, scratch)
	r.kept = slices.Clone(scratch[:r.nb])
	slices.Sort(r.kept)
	r.kth = m.addColumnKth(make([]float64, n), base, j, k, tau, scratch)
	r.means = columnMeans([]*BitMatrix{m}, m.cols)
	return r
}

// sameBits reports whether two float slices hold identical IEEE-754 bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func compareRuns(t testing.TB, label string, g, v kernelRun) {
	t.Helper()
	switch {
	case !sameBits(g.count, v.count):
		t.Fatalf("%s: case-pass scores differ", label)
	case g.hits != v.hits:
		t.Fatalf("%s: hits %d (Go) vs %d (AVX-512)", label, g.hits, v.hits)
	case !sameBits(g.band, v.band):
		t.Fatalf("%s: band-pass scores differ", label)
	case g.below != v.below || g.nb != v.nb:
		t.Fatalf("%s: below/nb %d/%d (Go) vs %d/%d (AVX-512)", label, g.below, g.nb, v.below, v.nb)
	case !sameBits(g.kept, v.kept):
		t.Fatalf("%s: band multisets differ", label)
	case math.Float64bits(g.kth) != math.Float64bits(v.kth):
		t.Fatalf("%s: kth %v (Go) vs %v (AVX-512)", label, g.kth, v.kth)
	case !sameBits(g.means, v.means):
		t.Fatalf("%s: column means differ", label)
	}
}

// kernelMatrix returns a rows×cols matrix with random bits and reps drawn
// from reps.
func kernelMatrix(t testing.TB, rng *rand.Rand, rows, cols int, reps []float64) *BitMatrix {
	t.Helper()
	m := NewBitMatrix(rows, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			if rng.Intn(2) == 1 {
				m.bits[j*m.wpc+i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	ratios := LogRatios{Minor: make([]float64, cols), Major: make([]float64, cols)}
	for j := 0; j < cols; j++ {
		ratios.Major[j] = reps[rng.Intn(len(reps))]
		ratios.Minor[j] = reps[rng.Intn(len(reps))]
	}
	m, err := m.Reskin(ratios)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestKernelsMatchGoLoops runs every kernel on both paths over row counts on
// both sides of the 8-row group and 64-row word edges, two matrices each
// with column counts drawn from below, at and past one 8-column group, and representative sets that give heavy ties, zero == one (a
// zero-width band), a subnormal band width and a band 1e3 wide. The count
// threshold sits on a tie with a written score.
func TestKernelsMatchGoLoops(t *testing.T) {
	requireAVX512(t)
	rng := rand.New(rand.NewSource(23))
	tiny := math.SmallestNonzeroFloat64
	repSets := []struct {
		name string
		reps []float64
	}{
		{"ties", []float64{-2.5, -1.25, 0, 0.5, 0.5, 1.75, 3}},
		{"zero==one", []float64{0.75}},
		{"subnormal", []float64{0, tiny, 2 * tiny}},
		{"wide", []float64{-500, 500}},
	}
	for _, rows := range []int{1, 7, 8, 9, 63, 64, 65, 127, 4953, 13035} {
		for _, set := range repSets {
			for range 2 {
				cols := []int{3, 8, 13, 21}[rng.Intn(4)]
				m := kernelMatrix(t, rng, rows, cols, set.reps)
				// A base of earlier columns' sums, so scores tie; tau is its
				// k-th smallest, as addColumnKth requires.
				base := make([]float64, rows)
				for c := 0; c < 3; c++ {
					m.addColumn(base, base, rng.Intn(cols))
				}
				k := []int{0, rows - 1, rng.Intn(rows)}[rng.Intn(3)]
				sorted := slices.Clone(base)
				slices.Sort(sorted)
				tau := sorted[k]
				for j := 0; j < cols; j++ {
					r := rng.Intn(rows)
					countTau := base[r] + m.At(r, j) // row r's own score: a tie
					label := fmt.Sprintf("%s, %d rows, column %d of %d", set.name, rows, j, cols)
					g := runKernels(false, m, base, j, k, tau, countTau)
					v := runKernels(true, m, base, j, k, tau, countTau)
					compareRuns(t, label, g, v)
				}
			}
		}
	}
}

// TestBandKthMatchesSort pins bandKth against a full sort, including the
// widths that must fall back to plain quickselect: zero, subnormal, and a
// range whose 64/width overflows.
func TestBandKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tiny := math.SmallestNonzeroFloat64
	for _, tc := range []struct {
		lo, hi float64
	}{{0, 1}, {-3, 7.5}, {2, 2}, {0, tiny}, {1e-310, 1e-309}, {0, 3e-307}, {0, 4e-307}, {-1e300, 1e300}} {
		for _, n := range []int{1, 127, 128, 129, 1000, 5000} {
			a := make([]float64, n)
			for i := range a {
				switch rng.Intn(4) {
				case 0:
					a[i] = tc.lo
				case 1:
					a[i] = tc.hi
				default:
					a[i] = tc.lo + (tc.hi-tc.lo)*rng.Float64()
				}
				a[i] = min(max(a[i], tc.lo), tc.hi)
			}
			want := slices.Clone(a)
			slices.Sort(want)
			for _, k := range []int{0, n / 3, n - 1} {
				got := bandKth(slices.Clone(a), k, tc.lo, tc.hi)
				if math.Float64bits(got) != math.Float64bits(want[k]) {
					t.Fatalf("[%v, %v] n=%d k=%d: bandKth %v, sort %v", tc.lo, tc.hi, n, k, got, want[k])
				}
			}
		}
	}
}

// TestSelectionMatchesGoLoops compares a whole Phase-3 selection at the
// paper's shape, and the discriminability order feeding it, on both paths.
func TestSelectionMatchesGoLoops(t *testing.T) {
	requireAVX512(t)
	caseLR, refLR := phase3BenchInputs(t)
	run := func(vector bool) ([]int, Result) {
		defer setKernels(vector)()
		order := DiscriminabilityOrderBit(caseLR, refLR)
		res, err := NewSelector().SelectSafeBitWithOrder(caseLR, refLR, DefaultParams(), order)
		if err != nil {
			t.Fatal(err)
		}
		return order, res
	}
	goOrder, goRes := run(false)
	vecOrder, vecRes := run(true)
	if !slices.Equal(goOrder, vecOrder) {
		t.Fatal("discriminability orders differ")
	}
	if !slices.Equal(goRes.Safe, vecRes.Safe) || goRes.Iterations != vecRes.Iterations ||
		math.Float64bits(goRes.Power) != math.Float64bits(vecRes.Power) {
		t.Fatalf("selection %d safe/%d iters/power %v (Go) vs %d/%d/%v (AVX-512)",
			len(goRes.Safe), goRes.Iterations, goRes.Power, len(vecRes.Safe), vecRes.Iterations, vecRes.Power)
	}
}

// FuzzKernels maps arbitrary bytes to a small matrix, base scores and
// thresholds and compares both paths. Representatives are small multiples
// of 1/8, so scores stay finite and tie often.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{200, 1, 9, 3, 0xff, 0x0f, 0xa5, 7, 7, 7})
	f.Add([]byte{63, 0, 15, 128, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		requireAVX512(t)
		if len(data) < 4 {
			return
		}
		rows := 1 + int(data[0]) + 256*int(data[1]&1)
		cols := 1 + int(data[2]%16)
		rest := data[3:]
		at := 0
		next := func() byte {
			b := rest[at%len(rest)] ^ byte(at*151/len(rest))
			at++
			return b
		}
		m := NewBitMatrix(rows, cols)
		for j := 0; j < cols; j++ {
			for w := 0; w < m.wpc; w++ {
				var word uint64
				for b := 0; b < 8; b++ {
					word |= uint64(next()) << (8 * b)
				}
				m.bits[j*m.wpc+w] = word
			}
			if tail := rows & 63; tail != 0 {
				m.bits[j*m.wpc+m.wpc-1] &= ones(tail)
			}
			m.zero[j] = float64(int8(next())) / 8
			m.one[j] = float64(int8(next())) / 8
		}
		base := make([]float64, rows)
		for i := range base {
			base[i] = float64(int8(next())) / 4
		}
		k := int(next()) % rows
		sorted := slices.Clone(base)
		slices.Sort(sorted)
		tau := sorted[k]
		countTau := float64(int8(next())) / 4
		for j := 0; j < cols; j++ {
			compareRuns(t, "fuzz", runKernels(false, m, base, j, k, tau, countTau), runKernels(true, m, base, j, k, tau, countTau))
		}
	})
}

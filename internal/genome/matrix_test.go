package genome

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(t testing.TB, n, l int, seed int64) *Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(n, l)
	for i := 0; i < n; i++ {
		for j := 0; j < l; j++ {
			if rng.Intn(2) == 1 {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

func TestMatrixSetGet(t *testing.T) {
	m := NewMatrix(3, 130) // spans three words per row
	if m.Get(0, 0) || m.Get(2, 129) {
		t.Fatal("new matrix must be all major alleles")
	}
	m.Set(1, 64, true)
	m.Set(2, 129, true)
	if !m.Get(1, 64) {
		t.Error("Set(1,64) not visible")
	}
	if !m.Get(2, 129) {
		t.Error("Set(2,129) not visible")
	}
	if m.Get(0, 64) || m.Get(1, 65) {
		t.Error("Set leaked into neighbouring cells")
	}
	m.Set(1, 64, false)
	if m.Get(1, 64) {
		t.Error("clearing a cell failed")
	}
}

func TestMatrixOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 10)
	cases := []struct {
		name string
		f    func()
	}{
		{"get row", func() { m.Get(2, 0) }},
		{"get col", func() { m.Get(0, 10) }},
		{"set neg", func() { m.Set(-1, 0, true) }},
		{"count col", func() { m.AlleleCount(10) }},
		{"pair col", func() { m.PairCount(0, -1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.f()
		})
	}
}

func TestAlleleCountsMatchNaive(t *testing.T) {
	m := randomMatrix(t, 37, 301, 1)
	counts := m.AlleleCounts()
	if len(counts) != 301 {
		t.Fatalf("got %d counts, want 301", len(counts))
	}
	for l := 0; l < m.L(); l++ {
		var want int64
		for i := 0; i < m.N(); i++ {
			if m.Get(i, l) {
				want++
			}
		}
		if counts[l] != want {
			t.Fatalf("column %d: AlleleCounts=%d naive=%d", l, counts[l], want)
		}
		if got := m.AlleleCount(l); got != want {
			t.Fatalf("column %d: AlleleCount=%d naive=%d", l, got, want)
		}
	}
}

func TestPairCountMatchesNaive(t *testing.T) {
	m := randomMatrix(t, 41, 97, 2)
	for _, pair := range [][2]int{{0, 1}, {5, 80}, {96, 0}, {63, 64}} {
		var want int64
		for i := 0; i < m.N(); i++ {
			if m.Get(i, pair[0]) && m.Get(i, pair[1]) {
				want++
			}
		}
		if got := m.PairCount(pair[0], pair[1]); got != want {
			t.Errorf("pair %v: got %d, want %d", pair, got, want)
		}
	}
}

func TestPairStatsBinaryIdentity(t *testing.T) {
	m := randomMatrix(t, 29, 40, 3)
	s := m.PairStats(3, 17)
	if s.N != 29 {
		t.Errorf("N=%d, want 29", s.N)
	}
	if s.SumXX != s.SumX || s.SumYY != s.SumY {
		t.Errorf("binary genotypes must have SumXX==SumX and SumYY==SumY: %+v", s)
	}
	if s.SumXY > s.SumX || s.SumXY > s.SumY {
		t.Errorf("SumXY cannot exceed the marginals: %+v", s)
	}
}

func TestPairStatsAddIsComponentwise(t *testing.T) {
	a := PairStats{N: 1, SumX: 2, SumY: 3, SumXY: 4, SumXX: 5, SumYY: 6}
	b := PairStats{N: 10, SumX: 20, SumY: 30, SumXY: 40, SumXX: 50, SumYY: 60}
	got := a.Add(b)
	want := PairStats{N: 11, SumX: 22, SumY: 33, SumXY: 44, SumXX: 55, SumYY: 66}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
}

func TestSelectColumns(t *testing.T) {
	m := randomMatrix(t, 11, 70, 4)
	cols := []int{69, 0, 64, 33}
	sub := m.SelectColumns(cols)
	if sub.N() != 11 || sub.L() != 4 {
		t.Fatalf("shape %dx%d, want 11x4", sub.N(), sub.L())
	}
	for i := 0; i < m.N(); i++ {
		for j, l := range cols {
			if sub.Get(i, j) != m.Get(i, l) {
				t.Fatalf("cell (%d,%d) mismatch for source column %d", i, j, l)
			}
		}
	}
}

func TestSelectRowsAndConcatRoundTrip(t *testing.T) {
	m := randomMatrix(t, 17, 130, 5)
	a := m.SelectRows(0, 6)
	b := m.SelectRows(6, 11)
	c := m.SelectRows(11, 17)
	back, err := Concat(a, b, c)
	if err != nil {
		t.Fatalf("Concat: %v", err)
	}
	if !back.Equal(m) {
		t.Fatal("SelectRows+Concat did not reconstruct the original matrix")
	}
}

func TestConcatDimensionMismatch(t *testing.T) {
	a := NewMatrix(2, 10)
	b := NewMatrix(2, 11)
	if _, err := Concat(a, b); err == nil {
		t.Fatal("expected dimension-mismatch error")
	}
}

func TestConcatEmpty(t *testing.T) {
	m, err := Concat()
	if err != nil {
		t.Fatalf("Concat(): %v", err)
	}
	if m.N() != 0 || m.L() != 0 {
		t.Fatalf("empty concat shape %dx%d", m.N(), m.L())
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := randomMatrix(t, 5, 20, 6)
	c := m.Clone()
	if !c.Equal(m) {
		t.Fatal("clone differs from original")
	}
	c.Set(0, 0, !c.Get(0, 0))
	if c.Equal(m) {
		t.Fatal("mutating the clone changed the original")
	}
}

// Property: column sums are preserved by row partitioning and re-concatenation
// — the algebraic fact Phase 1 relies on when GDO count vectors are summed.
func TestQuickPartitionPreservesAlleleCounts(t *testing.T) {
	f := func(seed int64, n, l, g uint8) bool {
		rows := int(n%60) + 3
		cols := int(l%120) + 1
		parts := int(g%4) + 2
		if parts > rows {
			parts = rows
		}
		m := randomMatrix(t, rows, cols, seed)
		c := &Cohort{Case: m, Reference: NewMatrix(1, cols)}
		shards, err := c.Partition(parts)
		if err != nil {
			return false
		}
		sum := make([]int64, cols)
		total := 0
		for _, s := range shards {
			total += s.N()
			for i, v := range s.AlleleCounts() {
				sum[i] += v
			}
		}
		if total != rows {
			return false
		}
		want := m.AlleleCounts()
		for i := range want {
			if sum[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPairStats(b *testing.B) {
	m := randomMatrix(b, 2000, 1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.PairStats(10, 11)
	}
}

func TestTransposeMatchesRowMajor(t *testing.T) {
	// Shapes crossing both the row-word (l=64) and column-word (n=64)
	// boundaries, plus degenerate edges. Transpose is the matrix itself; its
	// column statistics must agree with a per-cell recount.
	shapes := [][2]int{{1, 1}, {63, 65}, {64, 64}, {65, 63}, {130, 200}, {0, 5}, {5, 0}}
	for _, sh := range shapes {
		n, l := sh[0], sh[1]
		m := randomMatrix(t, n, l, int64(7*n+l))
		if tr := m.Transpose(); tr != m {
			t.Fatalf("%dx%d: Transpose built a copy", n, l)
		}
		checkCells(t, fmt.Sprintf("%dx%d", n, l), m, n, l, m.Get)
		for trial := 0; trial < 50 && l > 0; trial++ {
			a, b := (trial*13)%l, (trial*29+7)%l
			var want int64
			for i := 0; i < n; i++ {
				if m.Get(i, a) && m.Get(i, b) {
					want++
				}
			}
			if got := m.PairCount(a, b); got != want {
				t.Fatalf("%dx%d: PairCount(%d,%d)=%d, want %d", n, l, a, b, got, want)
			}
			if got, want := m.PairStats(a, b), PairStatsFromCounts(int64(n), m.AlleleCount(a), m.AlleleCount(b), want); got != want {
				t.Fatalf("%dx%d: PairStats(%d,%d)=%+v, want %+v", n, l, a, b, got, want)
			}
		}
	}
}

// checkCells asserts that m is n×l, that every cell equals want, that the
// bits past row n in each column's last word are zero (Gather hands them to
// lrtest.BitFromColumnWords, which relies on it), and that the count vector
// equals a per-cell recount.
func checkCells(t *testing.T, name string, m *Matrix, n, l int, want func(i, l int) bool) {
	t.Helper()
	if m.N() != n || m.L() != l {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, m.N(), m.L(), n, l)
	}
	for c := 0; c < l; c++ {
		var count int64
		for i := 0; i < n; i++ {
			w := want(i, c)
			if m.Get(i, c) != w {
				t.Fatalf("%s: cell (%d,%d) is %v, want %v", name, i, c, m.Get(i, c), w)
			}
			if w {
				count++
			}
		}
		if got := m.AlleleCount(c); got != count || m.AlleleCounts()[c] != count {
			t.Fatalf("%s: SNP %d counts %d (vector %d), recount %d", name, c, got, m.AlleleCounts()[c], count)
		}
		if tail := uint(n) % wordBits; tail != 0 && m.column(c)[m.wpc-1]>>tail != 0 {
			t.Fatalf("%s: SNP %d has bits set past row %d", name, c, n)
		}
	}
}

// TestRowOperationsMatchPerCellGet checks the per-column bit-range copies
// behind SelectRows, Concat and Partition at every row offset that lands on,
// beside or between column words.
func TestRowOperationsMatchPerCellGet(t *testing.T) {
	const n, l = 130, 70
	m := randomMatrix(t, n, l, 11)
	offsets := []int{0, 1, 63, 64, 65, n - 1, n}
	for _, lo := range offsets {
		for _, hi := range offsets {
			if lo > hi {
				continue
			}
			sub := m.SelectRows(lo, hi)
			checkCells(t, fmt.Sprintf("SelectRows(%d,%d)", lo, hi), sub, hi-lo, l,
				func(i, c int) bool { return m.Get(lo+i, c) })
			rest := m.SelectRows(hi, n)
			both, err := Concat(sub, rest, sub)
			if err != nil {
				t.Fatal(err)
			}
			a, b := hi-lo, n-hi
			checkCells(t, fmt.Sprintf("Concat at %d,%d", lo, hi), both, 2*a+b, l, func(i, c int) bool {
				switch {
				case i < a:
					return m.Get(lo+i, c)
				case i < a+b:
					return m.Get(hi+i-a, c)
				}
				return m.Get(lo+i-a-b, c)
			})
		}
	}
	// The benchmark's rotation: the case rows from k on, then those before
	// k, split into three shards.
	for _, k := range offsets {
		rotated, err := Concat(m.SelectRows(k, n), m.SelectRows(0, k))
		if err != nil {
			t.Fatal(err)
		}
		rot := func(i, c int) bool { return m.Get((i+k)%n, c) }
		checkCells(t, fmt.Sprintf("rotation by %d", k), rotated, n, l, rot)
		shards, err := (&Cohort{Case: rotated, Reference: NewMatrix(1, l)}).Partition(3)
		if err != nil {
			t.Fatal(err)
		}
		at := 0
		for s, shard := range shards {
			at0 := at
			checkCells(t, fmt.Sprintf("rotation by %d, shard %d", k, s), shard, shard.N(), l,
				func(i, c int) bool { return rot(at0+i, c) })
			at += shard.N()
		}
		if at != n {
			t.Fatalf("rotation by %d: shards cover %d rows, want %d", k, at, n)
		}
	}
}

func TestSetKeepsCountsExact(t *testing.T) {
	m := NewMatrix(70, 3)
	steps := []struct {
		minor bool
		want  int64
	}{{true, 1}, {true, 1}, {false, 0}, {false, 0}}
	for _, i := range []int{0, 63, 64, 69} {
		for k, st := range steps {
			m.Set(i, 1, st.minor)
			if got := m.AlleleCount(1); got != st.want {
				t.Fatalf("row %d, step %d (Set %v): count %d, want %d", i, k, st.minor, got, st.want)
			}
		}
	}
	m.Set(5, 0, true)
	m.Set(6, 2, true)
	m.Set(5, 0, true)
	checkCells(t, "after Set", m, 70, 3, func(i, c int) bool { return (i == 5 && c == 0) || (i == 6 && c == 2) })
}

func TestGatherCopiesWholeColumns(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		m := randomMatrix(t, n, 50, int64(n)+1)
		wpc := (n + 63) / 64
		for _, cols := range [][]int{{}, {49}, {7, 3, 49, 0}, {12, 12}} {
			words, err := m.Gather(cols)
			if err != nil {
				t.Fatalf("n=%d Gather(%v): %v", n, cols, err)
			}
			if len(words) != len(cols)*wpc {
				t.Fatalf("n=%d Gather(%v) returned %d words, want %d", n, cols, len(words), len(cols)*wpc)
			}
			for j, l := range cols {
				for i := 0; i < n; i++ {
					bit := words[j*wpc+i/64]>>(uint(i)%64)&1 == 1
					if bit != m.Get(i, l) {
						t.Fatalf("n=%d Gather(%v): column %d row %d is %v, matrix has %v", n, cols, j, i, bit, m.Get(i, l))
					}
				}
				if tail := n % 64; tail != 0 && words[(j+1)*wpc-1]>>uint(tail) != 0 {
					t.Fatalf("n=%d Gather(%v): column %d has tail bits set", n, cols, j)
				}
			}
		}
		for _, cols := range [][]int{{50}, {-1}, {0, 50}} {
			if _, err := m.Gather(cols); !errors.Is(err, ErrIndexOutOfRange) {
				t.Errorf("n=%d Gather(%v) = %v, want ErrIndexOutOfRange", n, cols, err)
			}
		}
	}
}

package genome

import (
	"errors"
	"math/rand"
	"slices"
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

func TestMatrixBytesRoundTrip(t *testing.T) {
	m := randomMatrix(t, 9, 77, 7)
	got, err := MatrixFromBytes(m.Bytes())
	if err != nil {
		t.Fatalf("MatrixFromBytes: %v", err)
	}
	if !got.Equal(m) {
		t.Fatal("Bytes round trip lost data")
	}
}

func TestMatrixFromBytesRejectsGarbage(t *testing.T) {
	if _, err := MatrixFromBytes([]byte{1, 2, 3}); err == nil {
		t.Error("short input must fail")
	}
	m := NewMatrix(4, 4)
	b := m.Bytes()
	if _, err := MatrixFromBytes(b[:len(b)-1]); err == nil {
		t.Error("truncated input must fail")
	}
	// Implausible shape: n encoded as 2^40.
	bad := make([]byte, 16)
	bad[2] = 1
	if _, err := MatrixFromBytes(bad); err == nil {
		t.Error("implausible shape must fail")
	}
}

// Property: serialization round-trips for arbitrary shapes and contents.
func TestQuickMatrixSerializationRoundTrip(t *testing.T) {
	f := func(seed int64, n, l uint8) bool {
		m := randomMatrix(t, int(n%40)+1, int(l%200)+1, seed)
		back, err := MatrixFromBytes(m.Bytes())
		return err == nil && back.Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
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

func BenchmarkAlleleCounts(b *testing.B) {
	m := randomMatrix(b, 2000, 1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.AlleleCounts()
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
	// boundaries, plus degenerate edges.
	shapes := [][2]int{{1, 1}, {63, 65}, {64, 64}, {65, 63}, {130, 200}, {0, 5}, {5, 0}}
	for _, sh := range shapes {
		n, l := sh[0], sh[1]
		m := randomMatrix(t, n, l, int64(7*n+l))
		tr := m.Transpose()
		if tr.N() != n || tr.L() != l {
			t.Fatalf("%dx%d: transpose reports %dx%d", n, l, tr.N(), tr.L())
		}
		for snp := 0; snp < l; snp++ {
			if got, want := tr.AlleleCount(snp), m.AlleleCount(snp); got != want {
				t.Fatalf("%dx%d: AlleleCount(%d)=%d, want %d", n, l, snp, got, want)
			}
		}
		for trial := 0; trial < 50 && l > 0; trial++ {
			a, b := (trial*13)%l, (trial*29+7)%l
			if got, want := tr.PairCount(a, b), m.PairCount(a, b); got != want {
				t.Fatalf("%dx%d: PairCount(%d,%d)=%d, want %d", n, l, a, b, got, want)
			}
			if got, want := tr.PairStats(a, b), m.PairStats(a, b); got != want {
				t.Fatalf("%dx%d: PairStats(%d,%d)=%+v, want %+v", n, l, a, b, got, want)
			}
		}
	}
}

func TestColumnsIsBuiltOnceAndDroppedBySet(t *testing.T) {
	m := randomMatrix(t, 70, 40, 3)
	view := m.Columns()
	if again := m.Columns(); again != view {
		t.Fatal("second Columns() call built a new view")
	}
	if got, want := view.AlleleCounts(), m.AlleleCounts(); !slices.Equal(got, want) {
		t.Fatalf("view counts %v, want %v", got, want)
	}

	before := m.Get(69, 39)
	m.Set(69, 39, !before)
	fresh := m.Columns()
	if fresh == view {
		t.Fatal("Set did not drop the memoized view")
	}
	delta := int64(1)
	if before {
		delta = -1
	}
	if got, want := fresh.AlleleCount(39), view.AlleleCount(39)+delta; got != want {
		t.Fatalf("view after Set counts %d at the written SNP, want %d", got, want)
	}
	if got, want := fresh.AlleleCounts()[39], m.AlleleCount(39); got != want {
		t.Fatalf("count vector after Set has %d at the written SNP, want %d", got, want)
	}
}

func TestDerivedMatricesDoNotInheritColumns(t *testing.T) {
	m := randomMatrix(t, 20, 30, 5)
	view := m.Columns()
	concat, err := Concat(m, m)
	if err != nil {
		t.Fatal(err)
	}
	derived := map[string]*Matrix{
		"Clone":         m.Clone(),
		"SelectRows":    m.SelectRows(0, 20),
		"SelectColumns": m.SelectColumns([]int{0, 1, 2}),
		"Concat":        concat,
	}
	for name, d := range derived {
		if d.cols.Load() != nil {
			t.Errorf("%s result carries a memoized view", name)
		}
		if d.Columns() == view {
			t.Errorf("%s result shares the source's view", name)
		}
	}
	// A clone's own view is independent of later writes to the source.
	clone := derived["Clone"]
	m.Set(0, 0, !m.Get(0, 0))
	if clone.Columns().AlleleCount(0) != clone.AlleleCount(0) {
		t.Error("clone's view changed with the source")
	}
}

func TestColumnsConcurrentFirstUse(t *testing.T) {
	m := randomMatrix(t, 130, 90, 9)
	views := make(chan *ColumnBits, 8)
	for g := 0; g < cap(views); g++ {
		go func() { views <- m.Columns() }()
	}
	first := <-views
	for g := 1; g < cap(views); g++ {
		if v := <-views; v != first {
			t.Fatal("concurrent first calls observed different views")
		}
	}
}

func TestGatherCopiesWholeColumns(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		m := randomMatrix(t, n, 50, int64(n)+1)
		view := m.Columns()
		wpc := (n + 63) / 64
		for _, cols := range [][]int{{}, {49}, {7, 3, 49, 0}, {12, 12}} {
			words, err := view.Gather(cols)
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
			if _, err := view.Gather(cols); !errors.Is(err, ErrIndexOutOfRange) {
				t.Errorf("n=%d Gather(%v) = %v, want ErrIndexOutOfRange", n, cols, err)
			}
		}
	}
}

// BenchmarkColumns prices the prepared view: "first" is what a matrix pays
// once (the transpose and its count vector), "memo" what every later caller
// pays. The top level is the fed3_base member shape; "panel_1e5" is the
// 13,035-genome reference panel over one chromosome's 10⁵ SNPs, where the
// transpose stops scaling with its input.
func BenchmarkColumns(b *testing.B) {
	benchColumns(b, randomMatrix(b, 4953, 10000, 1))
	b.Run("panel_1e5", func(b *testing.B) {
		benchColumns(b, randomWords(13035, 100000, 1))
	})
}

func benchColumns(b *testing.B, m *Matrix) {
	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.cols.Store(nil)
			benchView = m.Columns()
		}
	})
	b.Run("memo", func(b *testing.B) {
		m.Columns()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchView = m.Columns()
		}
	})
}

// randomWords fills an n-by-l matrix a word at a time from a seeded source,
// the bits past column l cleared: at 13,035 × 10⁵ a per-cell fill would cost
// over 10⁹ calls.
func randomWords(n, l int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(n, l)
	for i := range m.words {
		m.words[i] = rng.Uint64()
	}
	if tail := uint(l) % wordBits; tail != 0 {
		for i := 0; i < n; i++ {
			m.row(i)[m.stride-1] &= 1<<tail - 1
		}
	}
	return m
}

var benchView *ColumnBits

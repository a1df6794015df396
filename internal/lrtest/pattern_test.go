package lrtest

import (
	"math"
	"math/rand"
	"testing"
)

// patGenotypes is a deterministic fake genotype source.
type patGenotypes struct {
	n, l int
	bits [][]bool
}

func newPatGenotypes(n, l int, seed int64) *patGenotypes {
	rng := rand.New(rand.NewSource(seed))
	g := &patGenotypes{n: n, l: l, bits: make([][]bool, n)}
	for i := range g.bits {
		g.bits[i] = make([]bool, l)
		for j := range g.bits[i] {
			g.bits[i][j] = rng.Intn(3) == 0
		}
	}
	return g
}

func (g *patGenotypes) N() int            { return g.n }
func (g *patGenotypes) L() int            { return g.l }
func (g *patGenotypes) Get(i, j int) bool { return g.bits[i][j] }

func patRatios(l int, seed int64) LogRatios {
	rng := rand.New(rand.NewSource(seed))
	r := LogRatios{Minor: make([]float64, l), Major: make([]float64, l)}
	for j := 0; j < l; j++ {
		r.Minor[j] = rng.NormFloat64()
		r.Major[j] = rng.NormFloat64()
	}
	return r
}

func TestBuildBitPatternReskinMatchesBuildBit(t *testing.T) {
	g := newPatGenotypes(37, 11, 1)
	ratios := patRatios(11, 2)
	want, err := BuildBit(g, ratios)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := BuildBitPattern(g)
	if err != nil {
		t.Fatal(err)
	}
	if !pat.IsPattern() {
		t.Fatal("BuildBitPattern must have zero representatives")
	}
	got, err := pat.Reskin(ratios)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("reskinned pattern differs from direct BuildBit")
	}
}

func TestConcatBitPatternsMatchesMergeBits(t *testing.T) {
	ratios := patRatios(9, 3)
	var parts []*BitMatrix
	var pats []*BitMatrix
	for i, n := range []int{17, 0, 64, 5, 129} {
		g := newPatGenotypes(n, 9, int64(10+i))
		lr, err := BuildBit(g, ratios)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, lr)
		pat, err := BuildBitPattern(g)
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, pat)
	}
	want, err := MergeBits(parts...)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := ConcatBitPatterns(pats...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cat.Reskin(ratios)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("reskinned concatenation differs from MergeBits of skinned parts")
	}
}

// TestPatternStackDeltaWalk drives a stack through pushes and removals and
// checks after every step that the stacked matrix decodes identically to a
// fresh concatenation of the live blocks (up to the row permutation the
// stack's slide-down removal induces — blocks keep stack order, so the
// expected layout is reproducible).
func TestPatternStackDeltaWalk(t *testing.T) {
	const cols = 7
	members := make([]*BitMatrix, 6)
	rowsOf := []int{3, 64, 1, 65, 0, 31}
	for i := range members {
		pat, err := BuildBitPattern(newPatGenotypes(rowsOf[i], cols, int64(20+i)))
		if err != nil {
			t.Fatal(err)
		}
		members[i] = pat
	}
	total := 0
	for _, r := range rowsOf {
		total += r
	}
	st := NewPatternStack(total, cols)

	live := []int{} // member ids in stack order
	check := func() {
		t.Helper()
		var parts []*BitMatrix
		for _, id := range live {
			parts = append(parts, members[id])
		}
		want, err := ConcatBitPatterns(parts...)
		if err != nil {
			t.Fatal(err)
		}
		got := st.Matrix()
		if got.Rows() != want.Rows() || (want.Rows() > 0 && got.Cols() != want.Cols()) {
			t.Fatalf("stack is %dx%d, want %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
		}
		for j := 0; j < cols; j++ {
			for i := 0; i < want.Rows(); i++ {
				if got.bit(i, j) != want.bit(i, j) {
					t.Fatalf("cell (%d,%d) = %d, want %d (live %v)", i, j, got.bit(i, j), want.bit(i, j), live)
				}
			}
		}
		// Padding above the used rows must be clear so future pushes splice
		// onto zeroed ground.
		for j := 0; j < cols; j++ {
			span := st.bits[j*st.wpc : (j+1)*st.wpc]
			for i := st.rows; i < st.capRows; i++ {
				if span[i>>6]>>(uint(i)&63)&1 != 0 {
					t.Fatalf("dirty padding bit at (%d,%d)", i, j)
				}
			}
		}
	}

	push := func(id int) {
		t.Helper()
		if err := st.Push(id, members[id]); err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
		check()
	}
	remove := func(id int) {
		t.Helper()
		if err := st.Remove(id); err != nil {
			t.Fatal(err)
		}
		for i, v := range live {
			if v == id {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
		check()
	}

	push(0)
	push(1)
	push(2)
	remove(1) // middle block, word-straddling slide
	push(3)
	remove(0) // head block
	push(4)   // zero-row block
	push(5)
	remove(5) // tail block
	push(1)
	remove(4)
	remove(2)
	remove(3)
	remove(1)
	if st.Rows() != 0 || len(st.Members()) != 0 {
		t.Fatalf("stack not empty after removing all: %d rows, members %v", st.Rows(), st.Members())
	}
	push(3)
	st.Reset()
	live = live[:0]
	check()
	push(1)
}

func TestPatternStackErrors(t *testing.T) {
	pat, err := BuildBitPattern(newPatGenotypes(10, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	st := NewPatternStack(15, 4)
	if err := st.Push(0, pat); err != nil {
		t.Fatal(err)
	}
	if err := st.Push(0, pat); err == nil {
		t.Fatal("duplicate member id must fail")
	}
	if err := st.Push(1, pat); err == nil {
		t.Fatal("capacity overflow must fail")
	}
	if err := st.Remove(9); err == nil {
		t.Fatal("removing an absent member must fail")
	}
	wrong, err := BuildBitPattern(newPatGenotypes(2, 5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push(2, wrong); err == nil {
		t.Fatal("column mismatch must fail")
	}
}

func TestPatternWireRoundTrip(t *testing.T) {
	for _, shape := range [][2]int{{0, 0}, {1, 1}, {63, 3}, {64, 3}, {65, 3}, {130, 17}} {
		pat, err := BuildBitPattern(newPatGenotypes(shape[0], shape[1], int64(40+shape[0])))
		if err != nil {
			t.Fatal(err)
		}
		enc := pat.EncodePatternWire()
		dec, err := DecodePatternWire(enc)
		if err != nil {
			t.Fatalf("decode %dx%d: %v", shape[0], shape[1], err)
		}
		if !dec.Equal(pat) || !dec.IsPattern() {
			t.Fatalf("round trip of %dx%d pattern differs", shape[0], shape[1])
		}
		// Orientation must survive: reskinning both with the same ratios
		// yields identical matrices even where a column is constant (the
		// case the value-oriented compact codec cannot represent).
		ratios := patRatios(shape[1], 99)
		a, err := pat.Reskin(ratios)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dec.Reskin(ratios)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatal("orientation lost in wire round trip")
		}
	}
}

func TestDecodePatternWireRejectsMalformed(t *testing.T) {
	pat, err := BuildBitPattern(newPatGenotypes(9, 2, 50))
	if err != nil {
		t.Fatal(err)
	}
	enc := pat.EncodePatternWire()
	cases := map[string][]byte{
		"empty":        {},
		"wrong tag":    append([]byte{wireCompact}, enc[1:]...),
		"truncated":    enc[:len(enc)-1],
		"extended":     append(append([]byte{}, enc...), 0),
		"short header": enc[:9],
	}
	for name, b := range cases {
		if _, err := DecodePatternWire(b); err == nil {
			t.Errorf("%s payload must fail", name)
		}
	}
	// Dirty tail bits are masked, not rejected: senders are not trusted to
	// maintain the column invariant.
	dirty := append([]byte{}, enc...)
	dirty[len(dirty)-1] |= 0x80 // highest bit of the last column word (row 63 > rows-1)
	dec, err := DecodePatternWire(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(pat) {
		t.Fatal("tail bits must be masked off")
	}
}

func TestSelectorReuseMatchesFresh(t *testing.T) {
	ratios := patRatios(13, 60)
	sel := NewSelector()
	for i, rows := range []int{40, 80, 40, 7} {
		caseLR, err := BuildBit(newPatGenotypes(rows, 13, int64(70+i)), ratios)
		if err != nil {
			t.Fatal(err)
		}
		refLR, err := BuildBit(newPatGenotypes(55, 13, int64(80+i)), ratios)
		if err != nil {
			t.Fatal(err)
		}
		params := Params{Alpha: 0.1, PowerThreshold: 0.6}
		if i == 3 {
			params.Oblivious = true
		}
		order := DiscriminabilityOrderBit(caseLR, refLR)
		want, err := new(Selector).SelectSafeBitWithOrder(caseLR, refLR, params, order)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sel.SelectSafeBitWithOrder(caseLR, refLR, params, order)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Power) != math.Float64bits(want.Power) ||
			len(got.Safe) != len(want.Safe) || got.Iterations != want.Iterations {
			t.Fatalf("run %d: reused selector result %+v, want %+v", i, got, want)
		}
		for j := range want.Safe {
			if got.Safe[j] != want.Safe[j] {
				t.Fatalf("run %d: safe sets differ: %v vs %v", i, got.Safe, want.Safe)
			}
		}
	}
}

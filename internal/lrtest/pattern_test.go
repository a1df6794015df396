package lrtest

import (
	"fmt"
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

// ConcatBitPatterns concatenates genotype bit-patterns row-wise in argument
// order, preserving orientation — unlike MergeBits, whose representative
// normalization is undefined on patterns (their zero and one representatives
// are equal). Reskinned, it is the case matrix a selection over the same
// parts (SelectSafeParts, DiscriminabilityOrderParts) must match bit for bit.
func ConcatBitPatterns(parts ...*BitMatrix) (*BitMatrix, error) {
	cols, rows := 0, 0
	if len(parts) > 0 {
		cols = parts[0].cols
	}
	for _, p := range parts {
		if p.cols != cols {
			return nil, fmt.Errorf("%w: %d vs %d columns", ErrShapeMismatch, p.cols, cols)
		}
		rows += p.rows
	}
	out := NewBitMatrix(rows, cols)
	off := 0
	for _, p := range parts {
		if p.rows == 0 {
			continue
		}
		for j := 0; j < cols; j++ {
			spliceWords(out.bits[j*out.wpc:(j+1)*out.wpc], off, p.bits[j*p.wpc:(j+1)*p.wpc], p.rows, false)
		}
		off += p.rows
	}
	return out, nil
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
		"wrong tag":    append([]byte{2}, enc[1:]...), // a retired LR-matrix tag
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

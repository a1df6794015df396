package lrtest

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"gendpr/internal/genome"
)

// noRowWords hides the RowBitSource fast path so BuildBit exercises the
// generic Genotypes fallback.
type noRowWords struct{ g *genome.Matrix }

func (w noRowWords) N() int            { return w.g.N() }
func (w noRowWords) L() int            { return w.g.L() }
func (w noRowWords) Get(i, l int) bool { return w.g.Get(i, l) }

func testRatios(t testing.TB, snps, caseN int, seed int64) (*genome.Cohort, LogRatios) {
	t.Helper()
	cohort, caseFreq, refFreq := buildCohort(t, snps, caseN, seed)
	ratios, err := NewLogRatios(caseFreq, refFreq)
	if err != nil {
		t.Fatal(err)
	}
	return cohort, ratios
}

func TestBuildBitMatchesDense(t *testing.T) {
	cohort, ratios := testRatios(t, 130, 400, 3)
	for _, g := range []*genome.Matrix{cohort.Case, cohort.Reference} {
		dense, err := Build(g, ratios)
		if err != nil {
			t.Fatal(err)
		}
		bit, err := BuildBit(g, ratios)
		if err != nil {
			t.Fatal(err)
		}
		if !bit.Dense().Equal(dense) {
			t.Fatal("BuildBit decodes differently from Build")
		}
		slow, err := BuildBit(noRowWords{g}, ratios)
		if err != nil {
			t.Fatal(err)
		}
		if !slow.Equal(bit) {
			t.Fatal("RowBitSource fast path differs from Genotypes fallback")
		}
	}
	g := genome.NewMatrix(1, 2)
	if _, err := BuildBit(g, LogRatios{Minor: []float64{1}, Major: []float64{2}}); err == nil {
		t.Fatal("shape mismatch must fail")
	}
}

func TestBitMatrixScoreSubsetMatchesDense(t *testing.T) {
	cohort, ratios := testRatios(t, 90, 300, 7)
	dense, _ := Build(cohort.Case, ratios)
	bit, _ := BuildBit(cohort.Case, ratios)
	subset := []int{0, 5, 5, 89, 44}
	want := dense.ScoreSubset(subset)
	got := bit.ScoreSubset(subset)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("score %d: %v vs %v (not bit-identical)", i, got[i], want[i])
		}
	}
	for j := 0; j < bit.Cols(); j += 17 {
		wc, gc := dense.Column(j), bit.Column(j)
		for i := range wc {
			if math.Float64bits(wc[i]) != math.Float64bits(gc[i]) {
				t.Fatalf("column %d row %d differs", j, i)
			}
		}
	}
}

func TestMergeBitsMatchesDenseMerge(t *testing.T) {
	cohort, ratios := testRatios(t, 70, 330, 13)
	shards, err := cohort.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	denseParts := make([]*Matrix, len(shards))
	bitParts := make([]*BitMatrix, len(shards))
	for i, s := range shards {
		denseParts[i], _ = Build(s, ratios)
		bitParts[i], _ = BuildBit(s, ratios)
	}
	wantDense, err := Merge(denseParts...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeBits(bitParts...)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Dense().Equal(wantDense) {
		t.Fatal("MergeBits decodes differently from dense Merge")
	}
	if _, err := MergeBits(bitParts[0], NewBitMatrix(1, 99)); err == nil {
		t.Fatal("column mismatch must fail")
	}
	empty, err := MergeBits()
	if err != nil || empty.Rows() != 0 || empty.Cols() != 0 {
		t.Fatalf("empty merge: %v %v", empty, err)
	}
}

// TestMergeBitsNormalizesRepresentatives merges parts that disagree on which
// representative a set bit denotes — the situation DecodeWireBit produces,
// because the compact wire format records representatives in row-scan
// first-seen order, which varies per shard.
func TestMergeBitsNormalizesRepresentatives(t *testing.T) {
	cohort, ratios := testRatios(t, 40, 260, 17)
	shards, err := cohort.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	denseParts := make([]*Matrix, len(shards))
	bitParts := make([]*BitMatrix, len(shards))
	for i, s := range shards {
		denseParts[i], _ = Build(s, ratios)
		// Round-trip through the wire so each part's zero/one assignment
		// follows its own first-seen order, not the BuildBit orientation.
		bitParts[i], err = DecodeWireBit(EncodeWire(denseParts[i]))
		if err != nil {
			t.Fatal(err)
		}
	}
	wantDense, _ := Merge(denseParts...)
	got, err := MergeBits(bitParts...)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Dense().Equal(wantDense) {
		t.Fatal("merge of wire-decoded parts differs from dense merge")
	}
}

func TestMergeBitsHandlesConstantColumns(t *testing.T) {
	// Hand-built parts with constant and empty columns exercise the
	// const-splice mappings.
	a := NewBitMatrix(3, 2)
	a.zero[0], a.one[0] = 1.5, 1.5
	a.zero[1], a.one[1] = 2.5, 7.5
	a.bits[1*a.wpc] = 0b101 // column 1: rows 0,2 set
	b := NewBitMatrix(65, 2)
	b.zero[0], b.one[0] = -4.5, 1.5
	for i := 0; i < 65; i++ { // column 0: all set -> constant 1.5
		b.bits[i>>6] |= 1 << (uint(i) & 63)
	}
	b.zero[1], b.one[1] = 7.5, 2.5 // inverted representatives vs a
	b.bits[1*b.wpc] = 0b11         // rows 0,1 decode to 2.5

	got, err := MergeBits(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Merge(a.Dense(), b.Dense())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Dense().Equal(want) {
		t.Fatal("constant-column merge differs from dense merge")
	}

	// A third distinct value in a column must be rejected.
	c := NewBitMatrix(1, 2)
	c.zero[0], c.one[0] = 99, 99
	c.zero[1], c.one[1] = 99, 99
	if _, err := MergeBits(a, b, c); err == nil {
		t.Fatal("three distinct column values must fail")
	}
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

func TestBitMatrixEncodeWireByteIdentical(t *testing.T) {
	cohort, ratios := testRatios(t, 50, 240, 23)
	dense, _ := Build(cohort.Case, ratios)
	bit, _ := BuildBit(cohort.Case, ratios)
	if !bytes.Equal(bit.EncodeWire(), EncodeWire(dense)) {
		t.Fatal("BitMatrix wire bytes differ from the dense encoder's")
	}
}

func TestBitMatrixEncodeWireEdgeShapes(t *testing.T) {
	cases := []*Matrix{
		NewMatrix(0, 0),
		NewMatrix(0, 3),
		NewMatrix(4, 0),
		NewMatrix(5, 2), // all-zero cells: single-valued columns
	}
	constant := NewMatrix(3, 2)
	for i := 0; i < 3; i++ {
		constant.Set(i, 0, 2.25)
		constant.Set(i, 1, -1.5)
	}
	cases = append(cases, constant)
	// A column whose first row carries the set-bit value exercises the
	// inverted wire mapping.
	flipped := NewMatrix(3, 1)
	flipped.Set(0, 0, 9)
	flipped.Set(1, 0, 3)
	flipped.Set(2, 0, 9)
	cases = append(cases, flipped)
	for i, d := range cases {
		bit, err := BitFromDense(d)
		if err != nil {
			t.Fatalf("case %d: BitFromDense: %v", i, err)
		}
		if !bytes.Equal(bit.EncodeWire(), EncodeWire(d)) {
			t.Fatalf("case %d: wire bytes differ from dense encoder", i)
		}
	}
}

func TestDecodeWireBitRoundTrip(t *testing.T) {
	cohort, ratios := testRatios(t, 45, 230, 27)
	dense, _ := Build(cohort.Case, ratios)
	bit, err := DecodeWireBit(EncodeWire(dense))
	if err != nil {
		t.Fatal(err)
	}
	if !bit.Dense().Equal(dense) {
		t.Fatal("compact wire decode differs from dense decode")
	}
	// Dense-tagged payloads decode through the two-value detector.
	bit2, err := DecodeWireBit(append([]byte{wireDense}, dense.Bytes()...))
	if err != nil {
		t.Fatal(err)
	}
	if !bit2.Equal(bit) {
		t.Fatal("dense-tag decode differs from compact decode")
	}
	if _, err := DecodeWireBit(nil); err == nil {
		t.Fatal("empty payload must fail")
	}
	if _, err := DecodeWireBit([]byte{99}); err == nil {
		t.Fatal("unknown tag must fail")
	}
	if _, err := DecodeWireBit([]byte{wireCompact, 1, 2}); err == nil {
		t.Fatal("truncated compact payload must fail")
	}
}

func TestBitFromDenseRejectsNonCompactable(t *testing.T) {
	m := NewMatrix(3, 1)
	m.Set(0, 0, 1)
	m.Set(1, 0, 2)
	m.Set(2, 0, 3)
	if _, err := BitFromDense(m); err == nil {
		t.Fatal("three-valued column must fail")
	}
	n := NewMatrix(2, 1)
	n.Set(0, 0, math.NaN())
	if _, err := BitFromDense(n); err == nil {
		t.Fatal("NaN column must fail")
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
		sorted := append([]float64(nil), scores...)
		sort.Float64s(sorted)
		want := sorted[thresholdIndex(n, alpha)]
		if got := Threshold(scores, alpha); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Threshold=%v, sort-based=%v", trial, got, want)
		}
	}
}

func TestSelectSafeBitMatchesDense(t *testing.T) {
	for _, oblivious := range []bool{false, true} {
		for _, seed := range []int64{5, 9, 29} {
			cohort, ratios := testRatios(t, 80, 320, seed)
			caseDense, _ := Build(cohort.Case, ratios)
			refDense, _ := Build(cohort.Reference, ratios)
			caseBit, _ := BuildBit(cohort.Case, ratios)
			refBit, _ := BuildBit(cohort.Reference, ratios)
			params := DefaultParams()
			params.Oblivious = oblivious

			want, err := SelectSafe(caseDense, refDense, params)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SelectSafeBit(caseBit, refBit, params)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Safe) != len(got.Safe) || want.Iterations != got.Iterations {
				t.Fatalf("oblivious=%v seed=%d: bit selection shape differs: %d/%d vs %d/%d",
					oblivious, seed, len(got.Safe), got.Iterations, len(want.Safe), want.Iterations)
			}
			for i := range want.Safe {
				if want.Safe[i] != got.Safe[i] {
					t.Fatalf("oblivious=%v seed=%d: selection differs at %d", oblivious, seed, i)
				}
			}
			if math.Float64bits(want.Power) != math.Float64bits(got.Power) {
				t.Fatalf("oblivious=%v seed=%d: power %v vs %v not bit-identical",
					oblivious, seed, got.Power, want.Power)
			}
		}
	}
}

func TestSelectSafeBitValidation(t *testing.T) {
	m := NewBitMatrix(1, 1)
	if _, err := SelectSafeBit(m, m, Params{Alpha: 0, PowerThreshold: 0.9}); err == nil {
		t.Error("alpha=0 must fail")
	}
	if _, err := SelectSafeBit(NewBitMatrix(1, 2), NewBitMatrix(1, 3), DefaultParams()); err == nil {
		t.Error("column mismatch must fail")
	}
	if _, err := SelectSafeBitWithOrder(m, m, DefaultParams(), []int{0, 0}); err == nil {
		t.Error("bad order must fail")
	}
	res, err := SelectSafeBit(NewBitMatrix(0, 0), NewBitMatrix(0, 0), DefaultParams())
	if err != nil || len(res.Safe) != 0 {
		t.Errorf("empty matrix: %v %v", res, err)
	}
}

func TestEvaluateBitMatchesDense(t *testing.T) {
	cohort, ratios := testRatios(t, 55, 250, 41)
	caseDense, _ := Build(cohort.Case, ratios)
	refDense, _ := Build(cohort.Reference, ratios)
	caseBit, _ := BuildBit(cohort.Case, ratios)
	refBit, _ := BuildBit(cohort.Reference, ratios)
	subset := []int{3, 11, 30, 54}
	want, err := Evaluate(caseDense, refDense, subset, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateBit(caseBit, refBit, subset, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("EvaluateBit %v vs Evaluate %v", got, want)
	}
	if _, err := EvaluateBit(NewBitMatrix(1, 2), NewBitMatrix(1, 3), nil, 0.1); err == nil {
		t.Error("column mismatch must fail")
	}
}

func TestBitFromColumnWordsAdopts(t *testing.T) {
	// 65 rows: two words per column, one live bit in the second.
	ratios := LogRatios{Minor: []float64{0.5, -0.25}, Major: []float64{-0.125, 2}}
	words := []uint64{^uint64(0), 1, 1, 0}
	m, err := BitFromColumnWords(65, words, ratios)
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
		"short words": func() (*BitMatrix, error) { return BitFromColumnWords(65, words[:3], ratios) },
		"ragged ratios": func() (*BitMatrix, error) {
			return BitFromColumnWords(65, words, LogRatios{Minor: ratios.Minor, Major: ratios.Major[:1]})
		},
		"negative rows":  func() (*BitMatrix, error) { return BitFromColumnWords(-1, nil, LogRatios{}) },
		"words, no cols": func() (*BitMatrix, error) { return BitFromColumnWords(65, words, LogRatios{}) },
	} {
		if _, err := bad(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

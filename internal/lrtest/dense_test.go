package lrtest

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"gendpr/internal/genome"
)

// This file is the dense reference the bit-packed LR-matrix is tested
// against: Equation 1 written out as one float64 per cell, the compact wire
// format encoded from its definition, and SecureGenome's greedy LR-test run
// over the cells with every candidate rescored from scratch and thresholded
// by a full sort. It shares nothing with BitMatrix but LogRatios and Power.

// denseLR is an LR-matrix with one float64 per cell, row-major.
type denseLR struct {
	rows, cols int
	cells      []float64
}

// buildDense fills in Equation 1 for every individual and SNP of g.
func buildDense(g Genotypes, r LogRatios) denseLR {
	d := denseLR{rows: g.N(), cols: g.L(), cells: make([]float64, g.N()*g.L())}
	for i := 0; i < d.rows; i++ {
		for l := 0; l < d.cols; l++ {
			if g.Get(i, l) {
				d.cells[i*d.cols+l] = r.Minor[l]
			} else {
				d.cells[i*d.cols+l] = r.Major[l]
			}
		}
	}
	return d
}

// denseOf decodes every cell of m.
func denseOf(m *BitMatrix) denseLR {
	d := denseLR{rows: m.Rows(), cols: m.Cols(), cells: make([]float64, m.Rows()*m.Cols())}
	for i := 0; i < d.rows; i++ {
		for j := 0; j < d.cols; j++ {
			d.cells[i*d.cols+j] = m.At(i, j)
		}
	}
	return d
}

// mergeDense concatenates the rows of ds, which share their column count.
func mergeDense(ds ...denseLR) denseLR {
	out := denseLR{cols: ds[0].cols}
	for _, d := range ds {
		out.rows += d.rows
		out.cells = append(out.cells, d.cells...)
	}
	return out
}

// equal reports whether d and o have the same shape and bit-identical cells.
func (d denseLR) equal(o denseLR) bool {
	if d.rows != o.rows || d.cols != o.cols {
		return false
	}
	for i, v := range d.cells {
		if math.Float64bits(v) != math.Float64bits(o.cells[i]) {
			return false
		}
	}
	return true
}

// scores sums each row's cells over cols, in the order given.
func (d denseLR) scores(cols []int) []float64 {
	s := make([]float64, d.rows)
	for _, j := range cols {
		for i := range s {
			s[i] += d.cells[i*d.cols+j]
		}
	}
	return s
}

// mean averages column j over the rows in ascending order.
func (d denseLR) mean(j int) float64 {
	if d.rows == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < d.rows; i++ {
		sum += d.cells[i*d.cols+j]
	}
	return sum / float64(d.rows)
}

// wire is the compact wire encoding: the tag, rows and cols big-endian, per
// column the first row's value and the column's other value (the first
// again when there is none), then one bit per cell in row-major order, set
// when the cell is not the first row's value.
func (d denseLR) wire() []byte {
	buf := binary.BigEndian.AppendUint64([]byte{wireCompact}, uint64(d.rows))
	buf = binary.BigEndian.AppendUint64(buf, uint64(d.cols))
	bits := make([]byte, (d.rows*d.cols+7)/8)
	for j := 0; j < d.cols; j++ {
		var lo, hi float64
		for i := 0; i < d.rows; i++ {
			switch v := d.cells[i*d.cols+j]; {
			case i == 0:
				lo, hi = v, v
			case v != lo:
				hi = v
				bits[(i*d.cols+j)/8] |= 1 << ((i*d.cols + j) % 8)
			}
		}
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(lo))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(hi))
	}
	return append(buf, bits...)
}

// sortedThreshold is the (1−α) quantile of scores taken from a full sort.
func sortedThreshold(scores []float64, alpha float64) float64 {
	if len(scores) == 0 {
		return math.Inf(1)
	}
	s := append([]float64(nil), scores...)
	sort.Float64s(s)
	return s[thresholdIndex(len(s), alpha)]
}

// selectDense is SecureGenome's greedy search: columns in discriminability
// order (|case mean − reference mean| ascending, index tie-break), each
// admitted when the power over the admitted columns plus it stays below
// PowerThreshold. It ignores params.Oblivious.
func selectDense(caseLR, refLR denseLR, params Params) Result {
	order := make([]int, caseLR.cols)
	dist := make([]float64, caseLR.cols)
	for j := range order {
		order[j] = j
		dist[j] = math.Abs(caseLR.mean(j) - refLR.mean(j))
	}
	sort.Slice(order, func(a, b int) bool {
		if da, db := dist[order[a]], dist[order[b]]; da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	var admitted []int
	res := Result{Safe: []int{}}
	for _, j := range order {
		cand := append(admitted[:len(admitted):len(admitted)], j)
		power := Power(caseLR.scores(cand), sortedThreshold(refLR.scores(cand), params.Alpha))
		res.Iterations++
		if power < params.PowerThreshold {
			admitted, res.Power = cand, power
		}
	}
	res.Safe = append(res.Safe, admitted...)
	sort.Ints(res.Safe)
	return res
}

func TestBuildBitMatchesDense(t *testing.T) {
	cohort, ratios := testRatios(t, 130, 400, 3)
	for _, g := range []*genome.Matrix{cohort.Case, cohort.Reference} {
		bit, err := BuildBit(g, ratios)
		if err != nil {
			t.Fatal(err)
		}
		if !denseOf(bit).equal(buildDense(g, ratios)) {
			t.Fatal("BuildBit decodes differently from Equation 1")
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
	dense := buildDense(cohort.Case, ratios)
	bit, _ := BuildBit(cohort.Case, ratios)
	subset := []int{0, 5, 5, 89, 44}
	want := dense.scores(subset)
	got := bit.ScoreSubset(subset)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("score %d: %v vs %v (not bit-identical)", i, got[i], want[i])
		}
	}
	for j := 0; j < bit.Cols(); j += 17 {
		wc, gc := dense.scores([]int{j}), bit.Column(j)
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
	denseParts := make([]denseLR, len(shards))
	bitParts := make([]*BitMatrix, len(shards))
	for i, s := range shards {
		denseParts[i] = buildDense(s, ratios)
		bitParts[i], _ = BuildBit(s, ratios)
	}
	got, err := MergeBits(bitParts...)
	if err != nil {
		t.Fatal(err)
	}
	if !denseOf(got).equal(mergeDense(denseParts...)) {
		t.Fatal("MergeBits decodes differently from dense concatenation")
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
	denseParts := make([]denseLR, len(shards))
	bitParts := make([]*BitMatrix, len(shards))
	for i, s := range shards {
		denseParts[i] = buildDense(s, ratios)
		// Round-trip through the wire so each part's zero/one assignment
		// follows its own first-seen order, not the BuildBit orientation.
		built, _ := BuildBit(s, ratios)
		if bitParts[i], err = DecodeWireBit(built.EncodeWire()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := MergeBits(bitParts...)
	if err != nil {
		t.Fatal(err)
	}
	if !denseOf(got).equal(mergeDense(denseParts...)) {
		t.Fatal("merge of wire-decoded parts differs from dense concatenation")
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
	if !denseOf(got).equal(mergeDense(denseOf(a), denseOf(b))) {
		t.Fatal("constant-column merge differs from dense concatenation")
	}

	// A third distinct value in a column must be rejected.
	c := NewBitMatrix(1, 2)
	c.zero[0], c.one[0] = 99, 99
	c.zero[1], c.one[1] = 99, 99
	if _, err := MergeBits(a, b, c); err == nil {
		t.Fatal("three distinct column values must fail")
	}
}

func TestBitMatrixEncodeWireByteIdentical(t *testing.T) {
	cohort, ratios := testRatios(t, 50, 240, 23)
	bit, _ := BuildBit(cohort.Case, ratios)
	if !bytes.Equal(bit.EncodeWire(), buildDense(cohort.Case, ratios).wire()) {
		t.Fatal("BitMatrix wire bytes differ from the format's definition")
	}
}

func TestBitMatrixEncodeWireEdgeShapes(t *testing.T) {
	cases := []*BitMatrix{
		NewBitMatrix(0, 0),
		NewBitMatrix(0, 3),
		NewBitMatrix(4, 0),
		NewBitMatrix(5, 2), // all-zero cells: single-valued columns
	}
	// Single-valued columns whose representatives differ: all bits clear in
	// column 0, all set in column 1.
	constant := NewBitMatrix(3, 2)
	constant.zero[0], constant.one[0] = 2.25, 7
	constant.zero[1], constant.one[1] = 5, -1.5
	constant.bits[1*constant.wpc] = 0b111
	// A column whose first row carries the set-bit value exercises the
	// inverted wire mapping.
	flipped := NewBitMatrix(3, 1)
	flipped.zero[0], flipped.one[0] = 3, 9
	flipped.bits[0] = 0b101
	cases = append(cases, constant, flipped)
	for i, m := range cases {
		if !bytes.Equal(m.EncodeWire(), denseOf(m).wire()) {
			t.Fatalf("case %d: wire bytes differ from the format's definition", i)
		}
	}
}

func TestDecodeWireBitRoundTrip(t *testing.T) {
	cohort, ratios := testRatios(t, 45, 230, 27)
	built, _ := BuildBit(cohort.Case, ratios)
	wire := built.EncodeWire()
	bit, err := DecodeWireBit(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bit.Equal(built) || !denseOf(bit).equal(buildDense(cohort.Case, ratios)) {
		t.Fatal("compact wire decode differs from the encoded matrix")
	}
	// Tag 1, the retired dense encoding, is an unknown tag.
	if _, err := DecodeWireBit(append([]byte{wireDense}, wire[1:]...)); err == nil {
		t.Fatal("dense-tag payload must fail")
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

func TestSelectSafeBitMatchesDense(t *testing.T) {
	for _, oblivious := range []bool{false, true} {
		for _, seed := range []int64{5, 9, 29} {
			cohort, ratios := testRatios(t, 80, 320, seed)
			caseBit, _ := BuildBit(cohort.Case, ratios)
			refBit, _ := BuildBit(cohort.Reference, ratios)
			params := DefaultParams()
			params.Oblivious = oblivious

			want := selectDense(buildDense(cohort.Case, ratios), buildDense(cohort.Reference, ratios), params)
			got, err := selectBit(caseBit, refBit, params)
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

// TestEvaluateBitMatchesDense checks the power of a fixed subset: scores
// from BitMatrix.ScoreSubset thresholded by quickselect, against dense
// scores thresholded by a full sort.
func TestEvaluateBitMatchesDense(t *testing.T) {
	cohort, ratios := testRatios(t, 55, 250, 41)
	caseBit, _ := BuildBit(cohort.Case, ratios)
	refBit, _ := BuildBit(cohort.Reference, ratios)
	subset := []int{3, 11, 30, 54}
	want := Power(buildDense(cohort.Case, ratios).scores(subset),
		sortedThreshold(buildDense(cohort.Reference, ratios).scores(subset), 0.1))
	got := Power(caseBit.ScoreSubset(subset), Threshold(refBit.ScoreSubset(subset), 0.1))
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("bit power %v vs dense %v", got, want)
	}
}

// TestAdversaryThresholdMatchesDense pins the adversary's τ, which it
// computes from its own per-victim Score, to the dense reference panel's
// scores over every released column.
func TestAdversaryThresholdMatchesDense(t *testing.T) {
	cohort, caseFreq, refFreq := buildCohort(t, 70, 300, 33)
	ratios, err := NewLogRatios(caseFreq, refFreq)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := NewAdversary(caseFreq, refFreq, cohort.Reference, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(caseFreq))
	for j := range all {
		all[j] = j
	}
	want := sortedThreshold(buildDense(cohort.Reference, ratios).scores(all), 0.1)
	if math.Float64bits(adv.Threshold()) != math.Float64bits(want) {
		t.Fatalf("adversary τ %v, dense reference %v", adv.Threshold(), want)
	}
}

package lrtest

import (
	"runtime"
	"testing"
	"time"
)

// The one Phase-3 wire format is the genotype pattern: a member ships its
// pattern (EncodePatternWire) and the leader skins what it decodes through a
// combination's log ratios. A member's LR-matrix therefore survives the wire
// exactly when the decoded pattern, reskinned, is that matrix cell for cell.

// wireRoundTrip ships g's pattern over the wire, decodes it against g's
// column count, and requires the reskinned result to equal BuildBit(g, ratios).
func wireRoundTrip(t *testing.T, g Genotypes, ratios LogRatios) {
	t.Helper()
	pat, err := BuildBitPattern(g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodePatternWireCols(pat.EncodePatternWire(), g.L())
	if err != nil {
		t.Fatalf("%dx%d: DecodePatternWireCols: %v", g.N(), g.L(), err)
	}
	got, err := dec.Reskin(ratios)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildBit(g, ratios)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("%dx%d: wire round trip is not bit-exact", g.N(), g.L())
	}
}

func TestCompactRoundTripExact(t *testing.T) {
	cohort, ratios := testRatios(t, 45, 60, 13)
	wireRoundTrip(t, cohort.Case, ratios)
}

func TestCompactMuchSmallerThanDense(t *testing.T) {
	cohort, _ := testRatios(t, 100, 200, 17)
	pat, err := BuildBitPattern(cohort.Case)
	if err != nil {
		t.Fatal(err)
	}
	compact := len(pat.EncodePatternWire())
	dense := 16 + 8*pat.Rows()*pat.Cols()
	if compact*10 > dense {
		t.Errorf("compact %d bytes vs dense %d: expected >10x reduction", compact, dense)
	}
}

func TestCompactEdgeShapes(t *testing.T) {
	for _, shape := range [][2]int{{0, 0}, {1, 1}, {5, 0}, {0, 5}} {
		wireRoundTrip(t, newPatGenotypes(shape[0], shape[1], 7), patRatios(shape[1], 8))
	}
}

// TestCompactConstantColumn ships columns that decode to a single value: one
// no individual carries, one every individual carries, and one whose two
// representatives are equal (clamped frequencies). The pattern carries the
// bits, not the values, so each still reskins to the member's matrix.
func TestCompactConstantColumn(t *testing.T) {
	g := newPatGenotypes(4, 3, 9)
	for i := range g.bits {
		g.bits[i][0], g.bits[i][1] = false, true
	}
	g.bits[1][2], g.bits[3][2] = true, false
	ratios := patRatios(3, 10)
	ratios.Minor[2] = ratios.Major[2]
	wireRoundTrip(t, g, ratios)
}

// TestDecodeZeroColumnsIsConstantTime: a 17-byte pattern stating 2³⁰ rows and
// no columns — a member's reply when no SNP survived Phase 2 — is a
// well-formed empty matrix, and decoding it must not walk the stated rows; a
// 17-byte pattern stating 2³⁰ × 2³⁰ cells must be rejected before anything
// the size of that shape is allocated.
func TestDecodeZeroColumnsIsConstantTime(t *testing.T) {
	wire := make([]byte, 17)
	wire[0] = wirePatternTag
	putUint64(wire[1:], 1<<30)
	start := time.Now()
	m, err := DecodePatternWireCols(wire, 0)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("DecodePatternWireCols: %v", err)
	}
	if m.Rows() != 1<<30 || m.Cols() != 0 {
		t.Errorf("decoded %d×%d, want %d×0", m.Rows(), m.Cols(), 1<<30)
	}
	if elapsed > 20*time.Millisecond {
		t.Errorf("decoding a 17-byte zero-column reply took %v", elapsed)
	}

	pattern := make([]byte, 17)
	pattern[0] = wirePatternTag
	putUint64(pattern[1:], 1<<30)
	putUint64(pattern[9:], 1<<30)
	if _, err := DecodePatternWire(pattern); err == nil {
		t.Error("17-byte pattern stating 2³⁰ × 2³⁰ cells accepted")
	}
}

// TestDecodePatternWireColsBeforeAllocating is the regression test of the
// zero-row pattern reply: 17 bytes stating 0 rows × 2³⁰ columns carry no bit
// words, so they pass the size check, and a decoder taking the count from the
// payload allocates two 2³⁰-entry representative slices (16 GiB). Decoded
// against the count the leader asked for, the reply fails before any
// allocation; a reply of the asked-for shape still decodes.
func TestDecodePatternWireColsBeforeAllocating(t *testing.T) {
	pattern := make([]byte, 17)
	pattern[0] = wirePatternTag
	putUint64(pattern[9:], 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := DecodePatternWireCols(pattern, 3)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("0 × 2³⁰ pattern accepted for a 3-column request: %d×%d", m.Rows(), m.Cols())
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("rejecting the reply allocated %d bytes", n)
	}

	pat, err := BuildBitPattern(newPatGenotypes(9, 3, 51))
	if err != nil {
		t.Fatal(err)
	}
	enc := pat.EncodePatternWire()
	if _, err := DecodePatternWireCols(enc, 2); err == nil {
		t.Error("3-column pattern accepted for a 2-column request")
	}
	if _, err := DecodePatternWireCols(enc, -1); err == nil {
		t.Error("a negative column count accepted the payload's")
	}
	dec, err := DecodePatternWireCols(enc, 3)
	if err != nil || !dec.Equal(pat) {
		t.Fatalf("3-column pattern for a 3-column request: %v", err)
	}
	zero := NewBitMatrix(0, 3).EncodePatternWire()
	if dec, err := DecodePatternWireCols(zero, 3); err != nil || dec.Rows() != 0 || dec.Cols() != 3 {
		t.Fatalf("a member without cases: %v", err)
	}
}

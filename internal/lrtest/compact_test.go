package lrtest

import (
	"runtime"
	"testing"
	"time"

	"gendpr/internal/genome"
)

func builtMatrix(t *testing.T, rows, cols int, seed int64) *BitMatrix {
	t.Helper()
	cohort, err := genome.Generate(genome.DefaultGeneratorConfig(cols, rows, seed))
	if err != nil {
		t.Fatal(err)
	}
	caseFreq := genome.Frequencies(cohort.Case.AlleleCounts(), int64(cohort.Case.N()))
	refFreq := genome.Frequencies(cohort.Reference.AlleleCounts(), int64(cohort.Reference.N()))
	ratios, err := NewLogRatios(caseFreq, refFreq)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildBit(cohort.Case, ratios)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// wireRoundTrip encodes m, decodes the bytes and requires the same cells.
func wireRoundTrip(t *testing.T, m *BitMatrix) {
	t.Helper()
	back, err := DecodeWireBit(m.EncodeWire())
	if err != nil {
		t.Fatalf("%dx%d: DecodeWireBit: %v", m.Rows(), m.Cols(), err)
	}
	if !back.Equal(m) {
		t.Fatalf("%dx%d: wire round trip is not bit-exact", m.Rows(), m.Cols())
	}
}

func TestCompactRoundTripExact(t *testing.T) {
	wireRoundTrip(t, builtMatrix(t, 60, 45, 13))
}

func TestCompactMuchSmallerThanDense(t *testing.T) {
	m := builtMatrix(t, 200, 100, 17)
	compact := len(m.EncodeWire())
	dense := 16 + 8*m.Rows()*m.Cols()
	if compact*10 > dense {
		t.Errorf("compact %d bytes vs dense %d: expected >10x reduction", compact, dense)
	}
}

func TestEncodeWirePrefersCompact(t *testing.T) {
	m := builtMatrix(t, 20, 10, 19)
	if wire := m.EncodeWire(); wire[0] != wireCompact {
		t.Fatalf("wire tag %d, want compact", wire[0])
	}
	wireRoundTrip(t, m)
}

func TestCompactEdgeShapes(t *testing.T) {
	for _, shape := range [][2]int{{0, 0}, {1, 1}, {5, 0}, {0, 5}} {
		wireRoundTrip(t, NewBitMatrix(shape[0], shape[1]))
	}
}

func TestCompactConstantColumn(t *testing.T) {
	// A column with a single distinct value (e.g. clamped frequencies).
	m := NewBitMatrix(4, 2)
	m.zero[0], m.one[0] = 2.5, 2.5
	m.zero[1], m.one[1] = 0, 1
	m.bits[1*m.wpc] = 0b1010
	wireRoundTrip(t, m)
}

func TestDecodeWireRejectsGarbage(t *testing.T) {
	if _, err := DecodeWireBit(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := DecodeWireBit([]byte{99, 1, 2}); err == nil {
		t.Error("unknown tag accepted")
	}
	if _, err := DecodeWireBit([]byte{wireCompact, 1, 2}); err == nil {
		t.Error("short compact body accepted")
	}
	wire := builtMatrix(t, 10, 5, 23).EncodeWire()
	if _, err := DecodeWireBit(wire[:len(wire)-1]); err == nil {
		t.Error("truncated compact body accepted")
	}
}

// TestDecodeZeroColumnsIsConstantTime: a 17-byte reply stating 2³⁰ rows and
// no columns is a well-formed empty matrix, and decoding it must not walk the
// stated rows; a 17-byte pattern stating 2³⁰ × 2³⁰ cells must be rejected
// before anything the size of that shape is allocated.
func TestDecodeZeroColumnsIsConstantTime(t *testing.T) {
	wire := make([]byte, 17)
	wire[0] = wireCompact
	putUint64(wire[1:], 1<<30)
	start := time.Now()
	m, err := DecodeWireBit(wire)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("DecodeWireBit: %v", err)
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

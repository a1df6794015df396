package lrtest

import (
	"testing"

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

package lrtest

import (
	"bytes"
	"testing"
)

// FuzzDecodeWire checks, on every matrix the wire decoder accepts from
// arbitrary bytes, that the encoder writes the bytes the format's dense
// definition gives for its cells. Matrices without cells or with a
// non-finite representative are skipped: the definition reads the cells
// alone, and NaN cells have no equality for it to go by.
func FuzzDecodeWire(f *testing.F) {
	m := NewBitMatrix(3, 2)
	m.zero[0], m.one[0] = 0, 1.5
	m.zero[1], m.one[1] = 0, -0.25
	m.bits[0] = 0b001
	m.bits[1*m.wpc] = 0b100
	f.Add(m.EncodeWire())
	m.bits[0] = 0b110 // the first row carries the clear-bit value
	f.Add(m.EncodeWire())
	f.Add([]byte{wireDense})
	f.Add([]byte{wireCompact, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		bit, err := DecodeWireBit(data)
		if err != nil || bit.Rows()*bit.Cols() == 0 || !bit.RepsFinite() {
			return
		}
		if !bytes.Equal(bit.EncodeWire(), denseOf(bit).wire()) {
			t.Fatal("wire bytes differ from the format's definition")
		}
	})
}

// FuzzBitMatrixWire checks that hostile encodings never panic the wire
// decoder and that its re-encoding of every accepted input round-trips
// exactly.
func FuzzBitMatrixWire(f *testing.F) {
	m := NewBitMatrix(3, 2)
	m.zero[0], m.one[0] = 0, 1.5
	m.zero[1], m.one[1] = 0, -0.25
	m.bits[0] = 0b001
	m.bits[1*m.wpc] = 0b100
	wire := m.EncodeWire()
	f.Add(wire)
	f.Add(append([]byte{wireDense}, wire[1:]...))
	f.Add([]byte{wireCompact, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		bit, err := DecodeWireBit(data)
		if err != nil {
			return
		}
		again, err := DecodeWireBit(bit.EncodeWire())
		if err != nil {
			t.Fatalf("re-encode of accepted matrix failed: %v", err)
		}
		if !again.Equal(bit) {
			t.Fatal("bit wire round trip changed the matrix")
		}
	})
}

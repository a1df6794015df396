package lrtest

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzDecodePatternWire holds DecodePatternWireCols, the one decoder of a
// member's Phase-3 bytes in the leader, to its contract on arbitrary input.
// It never panics. A payload decoded against the column count it states (up
// to fuzzCols, the requests a leader of this shape could make) is a pattern —
// zero representatives, every column's tail bits clear — whose re-encoding
// decodes back Equal. The same bytes decoded against any other count are
// rejected before anything of the stated shape is allocated.
func FuzzDecodePatternWire(f *testing.F) {
	const fuzzCols = 1 << 12
	pat := NewBitMatrix(3, 2)
	pat.bits[0] = 0b001
	pat.bits[1*pat.wpc] = 0b110
	enc := pat.EncodePatternWire()
	f.Add(enc)
	dirty := append([]byte(nil), enc...)
	dirty[len(dirty)-1] |= 0x80 // bit 7 of the last column's word: a tail bit
	f.Add(dirty)
	wide := make([]byte, 17) // 0 rows × 2³⁰ columns in 17 bytes
	wide[0] = wirePatternTag
	putUint64(wide[9:], 1<<30)
	f.Add(wide)
	f.Add([]byte{wirePatternTag, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var stated uint64
		if len(data) >= 17 {
			stated = getUint64(data[9:17])
		}
		if stated <= fuzzCols {
			if m, err := DecodePatternWireCols(data, int(stated)); err == nil {
				if !m.IsPattern() {
					t.Fatal("accepted payload decoded with non-zero representatives")
				}
				if tail := m.rows & 63; tail != 0 {
					for j := 0; j < m.cols; j++ {
						if m.bits[(j+1)*m.wpc-1]&^ones(tail) != 0 {
							t.Fatalf("column %d keeps tail bits past row %d", j, m.rows)
						}
					}
				}
				back, err := DecodePatternWireCols(m.EncodePatternWire(), m.Cols())
				if err != nil || !back.Equal(m) {
					t.Fatalf("re-encoding of an accepted pattern does not decode back: %v", err)
				}
			}
		}
		other := int((stated + 1) & (1<<30 - 1)) // never the stated count
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodePatternWireCols(data, other)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("payload stating %d columns accepted for a %d-column request", stated, other)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Fatalf("rejecting a payload stating %d columns allocated %d bytes", stated, n)
		}
	})
}

// FuzzBitMatrixWire holds DecodePatternWire, the decoder that takes its
// column count from the payload, to the codec's round trip: it never panics,
// and the re-encoding of every accepted payload is the payload itself with
// the tail bits of each column's last word cleared. Payloads stating more than
// fuzzCols columns are skipped: a zero-row payload states any count in 17
// bytes, which is why the decoder is only for bytes the caller encoded.
func FuzzBitMatrixWire(f *testing.F) {
	const fuzzCols = 1 << 12
	pat := NewBitMatrix(3, 2)
	pat.bits[0] = 0b001
	pat.bits[1*pat.wpc] = 0b110
	enc := pat.EncodePatternWire()
	f.Add(enc)
	f.Add(append([]byte{wirePatternTag + 1}, enc[1:]...))
	f.Add([]byte{wirePatternTag, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 17 && getUint64(data[9:17]) > fuzzCols {
			return
		}
		m, err := DecodePatternWire(data)
		if err != nil {
			return
		}
		want := append([]byte(nil), data...)
		if tail := m.rows & 63; tail != 0 {
			for j := 0; j < m.cols; j++ {
				off := 17 + 8*((j+1)*m.wpc-1)
				putUint64(want[off:], getUint64(want[off:])&ones(tail))
			}
		}
		if !bytes.Equal(m.EncodePatternWire(), want) {
			t.Fatal("re-encoding of an accepted pattern is not its canonical payload")
		}
	})
}

package wire

import (
	"bytes"
	"testing"
)

// FuzzDecoder drives every decoder method over arbitrary bytes: no input may
// panic or allocate unboundedly, and Finish must never succeed with
// unconsumed bytes remaining.
func FuzzDecoder(f *testing.F) {
	e := NewEncoder(0)
	e.Uint64(42)
	e.Int64s([]int64{1, 2})
	e.String("x")
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		_ = d.Uint64()
		_ = d.Int64s()
		_ = d.Float64()
		_ = d.Blob()
		_ = d.String()
		_ = d.Bool()
		if err := d.Finish(); err == nil && d.Err() == nil {
			// Finish succeeded: every byte must have been consumed; the
			// sequence above reads at least 6 fields, so tiny inputs must
			// have failed instead.
			if len(data) < 8 {
				t.Fatalf("Finish succeeded on %d-byte input", len(data))
			}
		}
	})
}

// FuzzPacked reads a packed run and a bitmap of fuzzer-chosen shapes from
// arbitrary bytes: no input may panic, and whatever is accepted must
// re-encode to exactly the bytes it was read from — the packed forms are
// canonical, which the equivocation ledger's digests rely on.
func FuzzPacked(f *testing.F) {
	e := NewEncoder(0)
	e.Packed([]int64{5, 0, 7}, 3)
	e.Bitmap([]int{0, 9}, 10)
	f.Add(e.Bytes(), uint16(3), uint8(3), uint16(10))
	f.Add([]byte{0xFF, 0xFF, 0xFF}, uint16(1), uint8(63), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, width uint8, l uint16) {
		d := NewDecoder(data)
		v := d.Packed(int(n), int(width))
		set := d.Bitmap(int(l))
		if d.Finish() != nil {
			return
		}
		re := NewEncoder(0)
		re.Packed(v, int(width))
		re.Bitmap(set, int(l))
		if re.Err() != nil || !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("accepted %x re-encodes as %x (%v)", data, re.Bytes(), re.Err())
		}
	})
}

// Package wire implements the deterministic binary codec used for GenDPR
// protocol payloads. Encodings are fixed-width big-endian, so two enclaves
// serializing the same values produce byte-identical messages — a property
// the encrypted transport's authentication and the tests rely on.
package wire

import (
	"errors"
	"fmt"
	"math"
)

var (
	// ErrShortBuffer is returned when a decoder runs past the payload end.
	ErrShortBuffer = errors.New("wire: short buffer")

	// ErrTrailingBytes is returned by Finish when payload bytes remain.
	ErrTrailingBytes = errors.New("wire: trailing bytes after message")
)

// maxSliceLen bounds decoded slice lengths to stop hostile length fields
// from forcing huge allocations before content validation.
const maxSliceLen = 1 << 28

// Encoder appends fixed-width encodings to a growing buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with a hint-sized buffer.
func NewEncoder(sizeHint int) *Encoder {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// NewEncoderBuffer returns an encoder that appends to buf, which it takes
// over: Bytes returns buf's contents followed by everything encoded since. A
// caller that frames the payload reserves the frame's header in buf and, with
// spare capacity for the rest, gets frame and payload in one allocation.
func NewEncoderBuffer(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uint64 appends v.
func (e *Encoder) Uint64(v uint64) {
	e.buf = append(e.buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Int64 appends v.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Int appends v as a 64-bit value.
func (e *Encoder) Int(v int) { e.Uint64(uint64(int64(v))) }

// Float64 appends the IEEE-754 bits of v.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Bool appends a single byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Blob appends a length-prefixed byte string.
func (e *Encoder) Blob(b []byte) {
	e.Uint64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) { e.Blob([]byte(s)) }

// Int64s appends a length-prefixed int64 slice.
func (e *Encoder) Int64s(v []int64) {
	e.Uint64(uint64(len(v)))
	for _, x := range v {
		e.Int64(x)
	}
}

// Ints appends a length-prefixed int slice (as 64-bit values).
func (e *Encoder) Ints(v []int) {
	e.Uint64(uint64(len(v)))
	for _, x := range v {
		e.Int(x)
	}
}

// Float64s appends a length-prefixed float64 slice.
func (e *Encoder) Float64s(v []float64) {
	e.Uint64(uint64(len(v)))
	for _, x := range v {
		e.Float64(x)
	}
}

// Decoder reads fixed-width encodings, remembering the first error.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a payload for decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish returns an error when decoding failed or bytes remain unread.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d of %d bytes consumed", ErrTrailingBytes, d.off, len(d.buf))
	}
	return nil
}

// Remaining reports how many payload bytes are still unread. Decoders of
// formats with optional trailing sections probe it before Finish; after a
// decoding error it reports zero so error handling stays single-pathed.
func (d *Decoder) Remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.buf) - d.off
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.err = ErrShortBuffer
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint64 reads one value.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// Int64 reads one value.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Int reads one 64-bit value as an int.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Float64 reads one value.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Bool reads one byte.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

func (d *Decoder) sliceLen() int {
	n := d.Uint64()
	if d.err != nil {
		return 0
	}
	if n > maxSliceLen {
		d.err = fmt.Errorf("wire: slice length %d exceeds bound", n)
		return 0
	}
	return int(n)
}

// Blob reads a length-prefixed byte string. The result aliases the payload.
func (d *Decoder) Blob() []byte {
	n := d.sliceLen()
	if d.err != nil {
		return nil
	}
	return d.take(n)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Blob()) }

// Int64s reads a length-prefixed int64 slice.
func (d *Decoder) Int64s() []int64 {
	n := d.sliceLen()
	if d.err != nil || len(d.buf)-d.off < n*8 {
		if d.err == nil {
			d.err = ErrShortBuffer
		}
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.Int64()
	}
	return out
}

// Ints reads a length-prefixed int slice.
func (d *Decoder) Ints() []int {
	n := d.sliceLen()
	if d.err != nil || len(d.buf)-d.off < n*8 {
		if d.err == nil {
			d.err = ErrShortBuffer
		}
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	return out
}

// Float64s reads a length-prefixed float64 slice.
func (d *Decoder) Float64s() []float64 {
	n := d.sliceLen()
	if d.err != nil || len(d.buf)-d.off < n*8 {
		if d.err == nil {
			d.err = ErrShortBuffer
		}
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Float64()
	}
	return out
}

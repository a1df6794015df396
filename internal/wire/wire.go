// Package wire implements the deterministic binary codec used for GenDPR
// protocol payloads. Scalars, lengths and floats are 64-bit big-endian;
// integer vectors whose range is public are bit-packed at a width fixed by
// that range (Packed, Bitmap), never by the values themselves. Either way
// two enclaves serializing the same values produce byte-identical messages,
// every accepted encoding is the only one of its values, and a message's
// length follows from its shape alone — properties the encrypted transport's
// authentication, the equivocation ledger and the tests rely on.
package wire

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

var (
	// ErrShortBuffer is returned when a decoder runs past the payload end.
	ErrShortBuffer = errors.New("wire: short buffer")

	// ErrTrailingBytes is returned by Finish when payload bytes remain.
	ErrTrailingBytes = errors.New("wire: trailing bytes after message")

	// ErrUnencodable is recorded by an Encoder given a value its packed form
	// cannot carry: a negative value, one wider than its width, or a bitmap
	// member out of range or out of strictly ascending order.
	ErrUnencodable = errors.New("wire: value outside its packed form")

	// ErrNonCanonical is returned for packed bytes no Encoder writes: a
	// non-zero padding bit, or a bitmap bit at or past its length.
	ErrNonCanonical = errors.New("wire: non-canonical packed encoding")
)

// maxSliceLen bounds decoded slice lengths to stop hostile length fields
// from forcing huge allocations before content validation.
const maxSliceLen = 1 << 28

// Encoder appends encodings to a growing buffer. A value the packed forms
// cannot carry is remembered as the first error (Err) rather than written.
type Encoder struct {
	buf []byte
	err error
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

// Err returns the first encoding error, if any; Bytes is incomplete then.
func (e *Encoder) Err() error { return e.err }

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

// Width is the packed width, in bits, of a value known to lie in [0, hi]:
// bits.Len64(hi), and at least 1, so n values always take at least n bits
// and a claimed n can be held against the bytes that arrived. A negative hi
// has no packed form; its width, 64, is refused by Packed.
func Width(hi int64) int {
	if hi < 0 {
		return 64
	}
	return max(1, bits.Len64(uint64(hi)))
}

// PackedLen is the number of bytes n values of width bits occupy.
func PackedLen(n, width int) int { return (n*width + 7) / 8 }

// maxWidth bounds packed widths: every packed value is a non-negative int64.
const maxWidth = 63

// Packed appends v as one bit string, each value in width bits, most
// significant bit first, zero-padded to a whole byte: PackedLen(len(v),
// width) bytes. A value outside [0, 2^width) records ErrUnencodable.
func (e *Encoder) Packed(v []int64, width int) {
	if e.err != nil {
		return
	}
	if width < 1 || width > maxWidth {
		e.err = ErrUnencodable
		return
	}
	for _, x := range v {
		if x < 0 || x>>width != 0 {
			e.err = ErrUnencodable
			return
		}
	}
	var acc uint64 // pending bits, fewer than 8 between values
	var pending int
	for _, x := range v {
		for rem := width; rem > 0; {
			take := min(rem, 56) // pending+take stays below 64
			rem -= take
			acc = acc<<take | uint64(x)>>rem&(1<<take-1)
			pending += take
			for pending >= 8 {
				pending -= 8
				e.buf = append(e.buf, byte(acc>>pending))
			}
			acc &= 1<<pending - 1
		}
	}
	if pending > 0 {
		e.buf = append(e.buf, byte(acc<<(8-pending)))
	}
}

// Bitmap appends the set {set...} ⊆ [0, l) as l membership bits, Packed at
// width 1: PackedLen(l, 1) bytes. set must be strictly ascending and inside
// [0, l); anything else records ErrUnencodable.
func (e *Encoder) Bitmap(set []int, l int) {
	if e.err != nil {
		return
	}
	if l < 0 {
		e.err = ErrUnencodable
		return
	}
	member := make([]int64, l)
	prev := -1
	for _, i := range set {
		if i <= prev || i >= l {
			e.err = ErrUnencodable
			return
		}
		member[i] = 1
		prev = i
	}
	e.Packed(member, 1)
}

// Decoder reads the encodings above, remembering the first error.
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

// Packed reads n values of width bits each, as Encoder.Packed writes them.
// The PackedLen(n, width) bytes must all be there before anything is
// allocated, and the padding bits must be zero.
func (d *Decoder) Packed(n, width int) []int64 {
	if d.err != nil {
		return nil
	}
	if width < 1 || width > maxWidth || n < 0 || n > maxSliceLen {
		d.err = errors.New("wire: packed run shape out of bounds")
		return nil
	}
	b := d.take(PackedLen(n, width))
	if d.err != nil {
		return nil
	}
	out := make([]int64, n)
	var acc uint64 // the current byte's unread bits, the low `left` of acc
	left, pos := 0, 0
	for i := range out {
		var v uint64
		for rem := width; rem > 0; {
			if left == 0 {
				acc, left = uint64(b[pos]), 8
				pos++
			}
			take := min(rem, left)
			left -= take
			rem -= take
			v = v<<take | acc>>left&(1<<take-1)
		}
		out[i] = int64(v)
	}
	if acc&(1<<left-1) != 0 {
		d.err = fmt.Errorf("%w: padding bits set", ErrNonCanonical)
		return nil
	}
	return out
}

// Bitmap reads an l-bit membership bitmap, as Encoder.Bitmap writes it, and
// returns its members in ascending order. A set padding bit — a member at
// or past l — is ErrNonCanonical.
func (d *Decoder) Bitmap(l int) []int {
	member := d.Packed(l, 1)
	if d.err != nil {
		return nil
	}
	var out []int
	for i, m := range member {
		if m != 0 {
			out = append(out, i)
		}
	}
	return out
}

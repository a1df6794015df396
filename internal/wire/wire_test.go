package wire

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTripAllTypes(t *testing.T) {
	e := NewEncoder(64)
	e.Uint64(math.MaxUint64)
	e.Int64(-42)
	e.Int(123456789)
	e.Float64(3.14159)
	e.Bool(true)
	e.Bool(false)
	e.Blob([]byte{1, 2, 3})
	e.String("gendpr")
	e.Int64s([]int64{-1, 0, 1})
	e.Ints([]int{7, 8})

	d := NewDecoder(e.Bytes())
	if got := d.Uint64(); got != math.MaxUint64 {
		t.Errorf("Uint64=%d", got)
	}
	if got := d.Int64(); got != -42 {
		t.Errorf("Int64=%d", got)
	}
	if got := d.Int(); got != 123456789 {
		t.Errorf("Int=%d", got)
	}
	if got := d.Float64(); got != 3.14159 {
		t.Errorf("Float64=%v", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.Blob(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Blob=%v", got)
	}
	if got := d.String(); got != "gendpr" {
		t.Errorf("String=%q", got)
	}
	if got := d.Int64s(); len(got) != 3 || got[0] != -1 || got[2] != 1 {
		t.Errorf("Int64s=%v", got)
	}
	if got := d.Ints(); len(got) != 2 || got[1] != 8 {
		t.Errorf("Ints=%v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	_ = d.Uint64()
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Fatalf("got %v, want ErrShortBuffer", d.Err())
	}
	// Error is sticky: further reads return zero values without panicking.
	if v := d.Int64(); v != 0 {
		t.Errorf("post-error Int64=%d", v)
	}
	if s := d.String(); s != "" {
		t.Errorf("post-error String=%q", s)
	}
	if err := d.Finish(); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("Finish=%v", err)
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	e := NewEncoder(0)
	e.Uint64(1)
	e.Uint64(2)
	d := NewDecoder(e.Bytes())
	_ = d.Uint64()
	if err := d.Finish(); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("got %v, want ErrTrailingBytes", err)
	}
}

func TestDecoderHostileSliceLength(t *testing.T) {
	e := NewEncoder(0)
	e.Uint64(math.MaxUint64) // absurd length prefix
	for _, read := range []func(*Decoder){
		func(d *Decoder) { d.Int64s() },
		func(d *Decoder) { d.Ints() },
		func(d *Decoder) { d.Blob() },
	} {
		d := NewDecoder(e.Bytes())
		read(d)
		if d.Err() == nil {
			t.Fatal("hostile length accepted")
		}
	}
}

func TestDecoderSliceLengthBeyondPayload(t *testing.T) {
	e := NewEncoder(0)
	e.Uint64(10) // claims 10 elements, provides none
	d := NewDecoder(e.Bytes())
	if got := d.Int64s(); got != nil || d.Err() == nil {
		t.Fatalf("got %v, err %v", got, d.Err())
	}
}

func TestEmptySlices(t *testing.T) {
	e := NewEncoder(0)
	e.Int64s(nil)
	e.Ints(nil)
	e.Blob(nil)
	d := NewDecoder(e.Bytes())
	if v := d.Int64s(); len(v) != 0 {
		t.Errorf("Int64s=%v", v)
	}
	if v := d.Ints(); len(v) != 0 {
		t.Errorf("Ints=%v", v)
	}
	if v := d.Blob(); len(v) != 0 {
		t.Errorf("Blob=%v", v)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(a uint64, b int64, fl float64, is []int64, s string, blob []byte) bool {
		e := NewEncoder(0)
		e.Uint64(a)
		e.Int64(b)
		e.Float64(fl)
		e.Int64s(is)
		e.String(s)
		e.Blob(blob)
		d := NewDecoder(e.Bytes())
		if d.Uint64() != a || d.Int64() != b {
			return false
		}
		if gf := d.Float64(); math.Float64bits(gf) != math.Float64bits(fl) {
			return false
		}
		gi := d.Int64s()
		if len(gi) != len(is) {
			return false
		}
		for i := range is {
			if gi[i] != is[i] {
				return false
			}
		}
		if d.String() != s || !bytes.Equal(d.Blob(), blob) {
			return false
		}
		return d.Finish() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEncoderDeterministic(t *testing.T) {
	build := func() []byte {
		e := NewEncoder(0)
		e.Float64(1.5)
		e.String("x")
		return e.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("encoder is not deterministic")
	}
}

// TestEncoderBufferAppends checks the framing contract of NewEncoderBuffer:
// the reserved prefix survives, the payload follows it as NewEncoder would
// have produced it, and spare capacity is used in place.
func TestEncoderBufferAppends(t *testing.T) {
	plain := NewEncoder(0)
	plain.String("gendpr")
	plain.Ints([]int{7, 8})

	buf := make([]byte, 4, 4+len(plain.Bytes()))
	copy(buf, "HEAD")
	e := NewEncoderBuffer(buf)
	e.String("gendpr")
	e.Ints([]int{7, 8})
	got := e.Bytes()
	if !bytes.Equal(got[:4], []byte("HEAD")) || !bytes.Equal(got[4:], plain.Bytes()) {
		t.Fatalf("framed encoding %q, want HEAD + %q", got, plain.Bytes())
	}
	if &got[0] != &buf[0] {
		t.Error("encoder reallocated a buffer that had room")
	}
}

func TestWidth(t *testing.T) {
	for _, c := range []struct {
		max  int64
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {7, 3}, {8, 4}, {14860, 14}, {math.MaxInt64, 63}, {-1, 64}} {
		if got := Width(c.max); got != c.want {
			t.Errorf("Width(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := 1; width <= 63; width++ {
		for _, n := range []int{0, 1, 7, 8, 9, 100} {
			v := make([]int64, n)
			for i := range v {
				v[i] = rng.Int63() >> (63 - width)
			}
			if n > 0 {
				v[0] = 1<<width - 1 // the widest value
			}
			e := NewEncoder(0)
			e.Uint64(7) // packed runs follow other fields at any offset
			e.Packed(v, width)
			e.Bool(true)
			if e.Err() != nil {
				t.Fatalf("width %d: %v", width, e.Err())
			}
			if got, want := len(e.Bytes()), 9+PackedLen(n, width); got != want {
				t.Fatalf("width %d, %d values: %d bytes, want %d", width, n, got, want)
			}
			d := NewDecoder(e.Bytes())
			_ = d.Uint64()
			got := d.Packed(n, width)
			if !d.Bool() || d.Finish() != nil {
				t.Fatalf("width %d, %d values: decode: %v", width, n, d.Err())
			}
			for i := range v {
				if got[i] != v[i] {
					t.Fatalf("width %d: value %d = %d, want %d", width, i, got[i], v[i])
				}
			}
		}
	}
}

func TestPackedRejects(t *testing.T) {
	for name, enc := range map[string]func(*Encoder){
		"negative":  func(e *Encoder) { e.Packed([]int64{1, -1}, 8) },
		"too wide":  func(e *Encoder) { e.Packed([]int64{4}, 2) },
		"width 0":   func(e *Encoder) { e.Packed(nil, 0) },
		"width 64":  func(e *Encoder) { e.Packed(nil, 64) },
		"unsorted":  func(e *Encoder) { e.Bitmap([]int{3, 1}, 8) },
		"duplicate": func(e *Encoder) { e.Bitmap([]int{1, 1}, 8) },
		"past l":    func(e *Encoder) { e.Bitmap([]int{8}, 8) },
		"negative member": func(e *Encoder) {
			e.Bitmap([]int{-1}, 8)
		},
	} {
		e := NewEncoder(0)
		enc(e)
		if !errors.Is(e.Err(), ErrUnencodable) {
			t.Errorf("%s: Err() = %v, want ErrUnencodable", name, e.Err())
		}
		if len(e.Bytes()) != 0 {
			t.Errorf("%s: %d bytes written for an unencodable value", name, len(e.Bytes()))
		}
	}

	// Three 3-bit values leave 7 padding bits; any of them set is refused.
	e := NewEncoder(0)
	e.Packed([]int64{5, 0, 7}, 3)
	good := e.Bytes()
	for bit := 0; bit < 7; bit++ {
		bad := append([]byte(nil), good...)
		bad[1] |= 1 << bit
		d := NewDecoder(bad)
		if v := d.Packed(3, 3); v != nil || !errors.Is(d.Err(), ErrNonCanonical) {
			t.Errorf("padding bit %d: got %v, %v", bit, v, d.Err())
		}
	}
	d := NewDecoder(good[:1])
	if d.Packed(3, 3); !errors.Is(d.Err(), ErrShortBuffer) {
		t.Errorf("short packed run: %v", d.Err())
	}
	// A claimed count the bytes cannot hold fails before allocating.
	d = NewDecoder(make([]byte, 8))
	if d.Packed(1<<28, 1); !errors.Is(d.Err(), ErrShortBuffer) {
		t.Errorf("hostile packed count: %v", d.Err())
	}
}

func TestBitmapRoundTrip(t *testing.T) {
	for _, c := range []struct {
		set []int
		l   int
	}{{nil, 0}, {nil, 13}, {[]int{0}, 1}, {[]int{0, 7, 8, 12}, 13}, {[]int{15}, 16}} {
		e := NewEncoder(0)
		e.Bitmap(c.set, c.l)
		if e.Err() != nil || len(e.Bytes()) != PackedLen(c.l, 1) {
			t.Fatalf("%v/%d: %d bytes, %v", c.set, c.l, len(e.Bytes()), e.Err())
		}
		d := NewDecoder(e.Bytes())
		got := d.Bitmap(c.l)
		if err := d.Finish(); err != nil || len(got) != len(c.set) {
			t.Fatalf("%v/%d: got %v, %v", c.set, c.l, got, err)
		}
		for i := range got {
			if got[i] != c.set[i] {
				t.Fatalf("%v/%d: got %v", c.set, c.l, got)
			}
		}
	}
	// Bit 13 of a 13-bit map is padding.
	d := NewDecoder([]byte{0, 0x04})
	if d.Bitmap(13); !errors.Is(d.Err(), ErrNonCanonical) {
		t.Fatalf("bit past l: %v", d.Err())
	}
}

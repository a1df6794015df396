package wire

import (
	"bytes"
	"errors"
	"math"
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
	e.Float64s([]float64{0.5, -0.5})

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
	if got := d.Float64s(); len(got) != 2 || got[0] != 0.5 {
		t.Errorf("Float64s=%v", got)
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
		func(d *Decoder) { d.Float64s() },
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
	e.Float64s([]float64{})
	e.Ints(nil)
	e.Blob(nil)
	d := NewDecoder(e.Bytes())
	if v := d.Int64s(); len(v) != 0 {
		t.Errorf("Int64s=%v", v)
	}
	if v := d.Float64s(); len(v) != 0 {
		t.Errorf("Float64s=%v", v)
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
	f := func(a uint64, b int64, fs []float64, is []int64, s string, blob []byte) bool {
		e := NewEncoder(0)
		e.Uint64(a)
		e.Int64(b)
		e.Float64s(fs)
		e.Int64s(is)
		e.String(s)
		e.Blob(blob)
		d := NewDecoder(e.Bytes())
		if d.Uint64() != a || d.Int64() != b {
			return false
		}
		gf := d.Float64s()
		if len(gf) != len(fs) {
			return false
		}
		for i := range fs {
			if gf[i] != fs[i] && !(math.IsNaN(gf[i]) && math.IsNaN(fs[i])) {
				return false
			}
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
		e.Float64s([]float64{1.5, 2.5})
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

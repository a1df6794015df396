package genome

import "math/rand"

const (
	// math/rand's source is an additive lagged-Fibonacci generator:
	// o[k] = o[k-rngLen] + o[k-rngTap] (mod 2⁶⁴). Go 1 freezes its stream
	// (see the comment in rand.Float64), so a seed's cohort never changes.
	rngLen, rngTap = 607, 273

	int63Mask = 1<<63 - 1
	// floatOne is threshold(1): rand.Float64 turns an Int63 at or above it
	// into 1.0, which it discards and redraws.
	floatOne = 1<<63 - 1<<9
	// streamChunk is how many outputs a refill computes: 64 KiB, cache-sized.
	streamChunk = 30 * rngTap
)

// stream is a private copy of rand.NewSource's stream that exposes its
// outputs as a buffer, so the sampler scans runs without a call per value;
// as a rand.Source64 it feeds rand.New the same outputs.
type stream struct {
	buf []uint64 // consecutive outputs; the last rngLen feed the next refill
	pos int      // buf[pos] is the next output
}

// newStream seeds the copy with the source's first rngLen outputs.
func newStream(seed int64) *stream {
	src := rand.NewSource(seed).(rand.Source64)
	buf := make([]uint64, rngLen+streamChunk)
	for i := range buf[:rngLen] {
		buf[i] = src.Uint64()
	}
	extend(buf, rngLen)
	return &stream{buf: buf}
}

// extend fills buf[n:] from the recurrence, given buf[:n] with n >= rngLen,
// in slabs of rngTap outputs: no output in a slab reads another, so each
// slab is an element-wise sum without bounds checks.
func extend(buf []uint64, n int) {
	for n < len(buf) {
		dst := buf[n:min(n+rngTap, len(buf))]
		far, near := buf[n-rngLen:], buf[n-rngTap:]
		far, near = far[:len(dst)], near[:len(dst)]
		for i := range dst {
			dst[i] = far[i] + near[i]
		}
		n += len(dst)
	}
}

// window returns the next k outputs without consuming them.
func (s *stream) window(k int) []uint64 {
	if len(s.buf)-s.pos < k {
		s.refill(k)
	}
	return s.buf[s.pos : s.pos+k]
}

// refill keeps the unread tail and the rngLen outputs the recurrence reads
// and fills the rest of the buffer, growing it only when k outgrows a chunk.
func (s *stream) refill(k int) {
	from := min(s.pos, len(s.buf)-rngLen)
	buf := s.buf
	if need := s.pos - from + k; need > len(buf) {
		buf = make([]uint64, need+streamChunk)
	}
	n := copy(buf, s.buf[from:])
	s.buf, s.pos = buf, s.pos-from
	extend(buf, n)
}

// float consumes what one rand.Float64 call would and returns the Int63 it
// kept, so Float64() < p is float() < threshold(p).
func (s *stream) float() uint64 {
	v := s.Uint64() & int63Mask
	for v >= floatOne {
		v = s.Uint64() & int63Mask
	}
	return v
}

func (s *stream) Uint64() uint64 {
	v := s.window(1)[0]
	s.pos++
	return v
}

func (s *stream) Int63() int64 { return int64(s.Uint64() & int63Mask) }

func (s *stream) Seed(seed int64) { *s = *newStream(seed) }

// threshold returns T(p), the least x in [0, 2⁶³] with
// float64(x)/(1<<63) >= p. rand.Float64 returns float64(v)/(1<<63) for an
// Int63 v, so Float64() < p exactly when v < T(p): the conversion is
// monotone and the division exact, so a binary search on the same
// expression finds the boundary.
func threshold(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		if mid := lo + (hi-lo)/2; float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

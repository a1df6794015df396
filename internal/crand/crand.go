// Package crand provides cryptographically secure random sources for the
// privacy-critical components. The paper's threat model (Section 4) assumes
// colluding GDOs cannot predict enclave-internal randomness, so enclave code
// draws from crypto/rand, never from a seeded PRNG an adversary could
// rewind. Its caller is the federation's reconnect-backoff jitter.
//
// The package exposes the same minimal Intn contract *math/rand.Rand
// satisfies, so tests keep deterministic seeded sources while production
// code injects a Source. The cryptorand static analyzer
// (internal/analysis) enforces that privacy-critical packages never import
// math/rand directly; this package is the sanctioned replacement.
package crand

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"io"
)

// Source draws uniform integers from crypto/rand.Reader through a buffered
// reader, amortizing the read syscall over many small draws.
//
// Source is NOT safe for concurrent use, matching *math/rand.Rand; callers
// that share one across goroutines must serialize access.
type Source struct {
	r io.Reader
}

// New returns a crypto/rand-backed Source.
func New() *Source {
	return &Source{r: bufio.NewReaderSize(rand.Reader, 512)}
}

// Uint64 returns a uniform 64-bit value. It panics when the entropy source
// fails: crypto/rand.Reader cannot fail on the supported platforms, and a
// privacy-critical component must never continue with degraded randomness.
func (s *Source) Uint64() uint64 {
	var buf [8]byte
	if _, err := io.ReadFull(s.r, buf[:]); err != nil {
		panic("crand: entropy source failed: " + err.Error())
	}
	return binary.BigEndian.Uint64(buf[:])
}

// Intn returns a uniform value in [0, n). It panics when n <= 0, matching
// math/rand. Uniformity uses rejection sampling over the top of the 64-bit
// range, so no modulo bias is introduced.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("crand: Intn with non-positive n")
	}
	un := uint64(n)
	if un&(un-1) == 0 { // power of two: mask is exact
		return int(s.Uint64() & (un - 1))
	}
	// Reject draws from the final partial block so every residue is
	// equally likely. The loop terminates quickly: the rejection
	// probability is < 2^-63 of the range for any n representable here.
	limit := (^uint64(0)/un)*un - 1
	for {
		v := s.Uint64()
		if v <= limit {
			return int(v % un)
		}
	}
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision,
// mirroring math/rand.Float64 for drop-in use by noise mechanisms.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

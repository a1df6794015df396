// Package lrtest implements the SecureGenome-style likelihood-ratio test the
// paper uses to bound membership-inference power (Section 3.2.3 and Phase 3).
//
// The central object is the LR-matrix: for each individual n and SNP l it
// stores the per-SNP log-likelihood-ratio contribution of Equation 1,
//
//	LR(n,l) = x(n,l)·log(p̂_l/p_l) + (1−x(n,l))·log((1−p̂_l)/(1−p_l)),
//
// where p̂ is the pooled case frequency and p the reference frequency. An
// individual's LR statistic over a SNP subset is the sum of the subset's
// contributions. GDOs build LR-matrices over their local genomes using the
// *pooled* frequencies broadcast by the leader, which makes the concatenated
// federation matrix identical to the one a centralized holder of all genomes
// would build — the exactness property behind Table 4.
package lrtest

import (
	"errors"
	"fmt"
	"math"
)

// freqClamp bounds frequencies away from 0 and 1 so log-ratios stay finite.
// Both the case and reference frequency are clamped identically on every
// code path, so centralized and distributed evaluations agree bit-for-bit.
const freqClamp = 1e-6

// ErrShapeMismatch is returned when matrices that must agree on their SNP
// dimension do not.
var ErrShapeMismatch = errors.New("lrtest: matrix shape mismatch")

// Genotypes is the minimal genotype access the LR computation needs; the
// genome.Matrix type satisfies it.
type Genotypes interface {
	N() int
	L() int
	Get(i, l int) bool
}

// LogRatios precomputes, for each SNP, the two possible contributions:
// carrying the minor allele (x=1) and not (x=0).
type LogRatios struct {
	Minor []float64 // log(p̂/p)
	Major []float64 // log((1−p̂)/(1−p))
}

// NewLogRatios derives the per-SNP log ratios from pooled case frequencies
// and reference frequencies. The slices must have equal length.
func NewLogRatios(caseFreq, refFreq []float64) (LogRatios, error) {
	if len(caseFreq) != len(refFreq) {
		return LogRatios{}, fmt.Errorf("%w: %d case vs %d reference frequencies",
			ErrShapeMismatch, len(caseFreq), len(refFreq))
	}
	lr := LogRatios{
		Minor: make([]float64, len(caseFreq)),
		Major: make([]float64, len(caseFreq)),
	}
	for l := range caseFreq {
		ph := clamp(caseFreq[l])
		p := clamp(refFreq[l])
		lr.Minor[l] = math.Log(ph / p)
		lr.Major[l] = math.Log((1 - ph) / (1 - p))
	}
	return lr, nil
}

func clamp(p float64) float64 {
	if p < freqClamp {
		return freqClamp
	}
	if p > 1-freqClamp {
		return 1 - freqClamp
	}
	return p
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

func getUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

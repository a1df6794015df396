package core

import (
	"errors"
	"fmt"
	"math"

	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
)

// ErrInvalidPayload marks a member contribution that fails the leader's
// trust-boundary validation: counts exceeding the population, inconsistent or
// non-finite sufficient statistics, mismatched vector lengths, or a payload
// that contradicts the member's own earlier contributions. Unlike a transport
// failure (ErrMemberFailed), an invalid payload is evidence of tampering or
// corruption, so it is never retried. A plain run fails outright; a
// Byzantine-aware resilient run instead quarantines the member with a blame
// record and re-runs the assessment over the survivors — silent exclusion
// would mask an attack, attributed quarantine documents it.
var ErrInvalidPayload = errors.New("invalid payload")

// validateCounts checks a member's Phase 1 summary: one count per SNP, a
// non-negative population, and no count exceeding the population size.
func validateCounts(counts []int64, caseN int64, l int) error {
	if len(counts) != l {
		return fmt.Errorf("%w: %d counts, want %d", ErrInvalidPayload, len(counts), l)
	}
	// Diagnostics below name positions (SNP index) but never the member's
	// counts or population: error strings travel to leader logs, and the
	// secretflow analyzer treats error construction as an egress sink.
	if caseN < 0 {
		return fmt.Errorf("%w: negative population", ErrInvalidPayload)
	}
	for snp, c := range counts {
		if c < 0 || c > caseN {
			return fmt.Errorf("%w: count at SNP %d inconsistent with population", ErrInvalidPayload, snp)
		}
	}
	return nil
}

// validatePairStats checks a member's Phase 2 contribution against the
// invariants binary genotypes impose: for 0/1 data the squares equal the
// sums, marginals stay within the population, and the joint count is bounded
// by both marginals (and from below by inclusion-exclusion).
func validatePairStats(s genome.PairStats) error {
	// As in validateCounts, the messages state which invariant broke but
	// never the sufficient statistics themselves.
	if s.N < 0 {
		return fmt.Errorf("%w: negative pair population", ErrInvalidPayload)
	}
	if s.SumX < 0 || s.SumX > s.N || s.SumY < 0 || s.SumY > s.N {
		return fmt.Errorf("%w: pair marginals outside population", ErrInvalidPayload)
	}
	if s.SumXX != s.SumX || s.SumYY != s.SumY {
		return fmt.Errorf("%w: pair squares differ from sums for binary genotypes", ErrInvalidPayload)
	}
	min := s.SumX
	if s.SumY < min {
		min = s.SumY
	}
	if s.SumXY < 0 || s.SumXY > min {
		return fmt.Errorf("%w: joint count outside marginal bounds", ErrInvalidPayload)
	}
	if lower := s.SumX + s.SumY - s.N; s.SumXY < lower {
		return fmt.Errorf("%w: joint count below inclusion-exclusion bound", ErrInvalidPayload)
	}
	return nil
}

// validatePairConsistency cross-checks a member's Phase 2 pair statistics
// against the summary it already delivered: for binary genotypes the pair
// marginals are exactly the member's own per-SNP counts and the pair
// population its reported population. A skewed marginal can satisfy every
// single-payload invariant, so only this cross-payload check catches a
// Byzantine member that keeps its lies internally consistent.
func validatePairConsistency(s genome.PairStats, a, b int, counts []int64, caseN int64) error {
	// As elsewhere, messages name which invariant broke and the queried SNP
	// positions (protocol metadata), never the statistics themselves.
	if s.N != caseN {
		return fmt.Errorf("%w: pair population differs from reported summary", ErrInvalidPayload)
	}
	if a >= 0 && a < len(counts) && s.SumX != counts[a] {
		return fmt.Errorf("%w: pair marginal at SNP %d differs from reported count", ErrInvalidPayload, a)
	}
	if b >= 0 && b < len(counts) && s.SumY != counts[b] {
		return fmt.Errorf("%w: pair marginal at SNP %d differs from reported count", ErrInvalidPayload, b)
	}
	return nil
}

// validatePatternCounts cross-checks a genotype bit-pattern against the
// member's reported Phase 1 counts: a pattern column's popcount is the
// member's minor-allele carrier count for that SNP. Valid only for
// genotype-oriented patterns (the LRPattern contract).
func validatePatternCounts(p *lrtest.BitMatrix, cols []int, counts []int64) error {
	for j, snp := range cols {
		if snp < 0 || snp >= len(counts) {
			// Dimension errors are validateLRMatrix's concern.
			continue
		}
		if int64(p.ColumnOnes(j)) != counts[snp] {
			return fmt.Errorf("%w: pattern column for SNP %d disagrees with reported count", ErrInvalidPayload, snp)
		}
	}
	return nil
}

// validateLRMatrix checks a member's Phase 3 matrix: one row per local case
// genome, the broadcast column count, and finite log-ratio representatives
// (NewLogRatios clamps degenerate frequencies, so an honest member can never
// produce a NaN or ±Inf cell).
func validateLRMatrix(lr *lrtest.BitMatrix, rows int64, cols int) error {
	if int64(lr.Rows()) != rows {
		// The expected row count is the member's population: name the
		// mismatch, not the number.
		return fmt.Errorf("%w: LR-matrix row count differs from member population", ErrInvalidPayload)
	}
	if lr.Cols() != cols {
		return fmt.Errorf("%w: LR-matrix has %d columns, want %d", ErrInvalidPayload, lr.Cols(), cols)
	}
	if !lr.RepsFinite() {
		return fmt.Errorf("%w: LR-matrix contains non-finite entries", ErrInvalidPayload)
	}
	return nil
}

// validateFrequencies checks a frequency vector of an LR-matrix request: the
// expected length and finite entries in [0,1].
func validateFrequencies(freq []float64, cols int) error {
	if len(freq) != cols {
		return fmt.Errorf("%w: %d frequencies for %d columns", ErrInvalidPayload, len(freq), cols)
	}
	for i, f := range freq {
		if math.IsNaN(f) || f < 0 || f > 1 {
			return fmt.Errorf("%w: non-finite or out-of-range frequency at column %d", ErrInvalidPayload, i)
		}
	}
	return nil
}

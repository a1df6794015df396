package stats

import (
	"errors"
	"fmt"
	"math"

	"gendpr/internal/genome"
)

// ErrDegeneratePair reports a SNP pair whose pooled statistics carry no
// correlation signal: an empty pool or a zero-variance (monomorphic) SNP.
// Correlation is undefined for such pairs — 0/0 in the r^2 quotient — so the
// helpers surface a typed error instead of silently propagating a NaN into
// the LD ranking. Callers that rank pairs treat it as statistical
// independence (p = 1).
var ErrDegeneratePair = errors.New("stats: degenerate SNP pair (zero variance)")

// R2FromStatsChecked computes the squared Pearson correlation between two
// SNPs from pooled sufficient statistics (the quantities GDO enclaves
// outsource during Phase 2). For binary genotypes this equals the
// contingency-table r^2 of Section 3.1. It returns ErrDegeneratePair when
// the correlation is mathematically undefined (N == 0, or either SNP has zero
// variance in the pool) instead of folding those cases into r^2 = 0.
func R2FromStatsChecked(s genome.PairStats) (float64, error) {
	n := float64(s.N)
	if n == 0 {
		return 0, fmt.Errorf("%w: empty pool", ErrDegeneratePair)
	}
	num := n*float64(s.SumXY) - float64(s.SumX)*float64(s.SumY)
	vx := n*float64(s.SumXX) - float64(s.SumX)*float64(s.SumX)
	vy := n*float64(s.SumYY) - float64(s.SumY)*float64(s.SumY)
	if vx <= 0 || vy <= 0 {
		// The variances are derived from pre-release pair sums; the error
		// string travels to leader logs and must not carry their values.
		return 0, fmt.Errorf("%w: non-positive variance", ErrDegeneratePair)
	}
	r2 := num * num / (vx * vy)
	if r2 > 1 {
		// Guard against floating-point drift above the mathematical bound.
		r2 = 1
	}
	return r2, nil
}

// LDPValue returns the chi-square(1) p-value for the hypothesis that two
// SNPs are uncorrelated, using the classical identity chi^2 = N * r^2. Small
// p-values indicate high linkage disequilibrium; the paper removes a SNP of
// every pair with p below the LD cutoff (1e-5). Degenerate pairs (empty pool
// or a monomorphic SNP) return ErrDegeneratePair rather than a NaN-tainted
// statistic; rankers map that to p = 1 (no evidence of correlation).
func LDPValue(s genome.PairStats) (float64, error) {
	r2, err := R2FromStatsChecked(s)
	if err != nil {
		return 0, err
	}
	x := float64(s.N) * r2
	if math.IsNaN(x) {
		return 0, ErrBadArgument
	}
	return ChiSquareSurvival(x, 1)
}

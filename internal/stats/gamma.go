// Package stats implements the statistical machinery GWAS release assessment
// relies on: contingency tables, chi-square association tests and their
// p-values, linkage-disequilibrium r^2 from pooled sufficient statistics, and
// minor-allele-frequency computation. Everything is pure stdlib.
package stats

import (
	"errors"
	"math"
)

// ErrBadArgument is returned by the special functions for out-of-domain input.
var ErrBadArgument = errors.New("stats: argument out of domain")

const (
	gammaEps     = 1e-14
	gammaMaxIter = 500
)

// RegularizedGammaQ computes the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func RegularizedGammaQ(a, x float64) (float64, error) {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return 0, ErrBadArgument
	case x < 0:
		return 0, ErrBadArgument
	case x == 0:
		return 1, nil
	}
	if x < a+1 {
		p, err := gammaSeries(a, x)
		if err != nil {
			return 0, err
		}
		return 1 - p, nil
	}
	return gammaContinuedFraction(a, x)
}

// gammaSeries evaluates P(a,x) by its power series, accurate for x < a+1.
func gammaSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return 0, errors.New("stats: incomplete gamma series did not converge")
}

// gammaContinuedFraction evaluates Q(a,x) by the Lentz continued fraction,
// accurate for x >= a+1.
func gammaContinuedFraction(a, x float64) (float64, error) {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return 0, errors.New("stats: incomplete gamma continued fraction did not converge")
}

// ChiSquareSurvival returns the survival function (upper-tail p-value) of a
// chi-square distribution with df degrees of freedom evaluated at x:
// Pr[X >= x].
func ChiSquareSurvival(x float64, df int) (float64, error) {
	if df <= 0 {
		return 0, ErrBadArgument
	}
	if math.IsNaN(x) {
		return 0, ErrBadArgument
	}
	if x <= 0 {
		return 1, nil
	}
	if df == 1 {
		// Exact identity avoids the incomplete-gamma iteration on the most
		// common path: Pr[chi2_1 >= x] = erfc(sqrt(x/2)).
		return math.Erfc(math.Sqrt(x / 2)), nil
	}
	return RegularizedGammaQ(float64(df)/2, x/2)
}

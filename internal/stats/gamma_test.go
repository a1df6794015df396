package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// regularizedGammaP computes the regularized lower incomplete gamma function
// P(a, x) = gamma(a, x) / Gamma(a) for a > 0, x >= 0: the CDF form the
// reference tables quote, and the complement RegularizedGammaQ must match.
func regularizedGammaP(a, x float64) (float64, error) {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return 0, ErrBadArgument
	case x < 0:
		return 0, ErrBadArgument
	case x == 0:
		return 0, nil
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	q, err := gammaContinuedFraction(a, x)
	if err != nil {
		return 0, err
	}
	return 1 - q, nil
}

func TestRegularizedGammaKnownValues(t *testing.T) {
	// Reference values from standard tables / independent implementations.
	cases := []struct {
		a, x, p float64
	}{
		{0.5, 0.5, 0.6826894921370859}, // chi2(1) CDF at 1.0
		{0.5, 1.920729, 0.95},          // chi2(1) CDF at 3.841459 ~ 0.95
		{1, 1, 1 - math.Exp(-1)},       // exponential CDF identity
		{1, 2.5, 1 - math.Exp(-2.5)},   // exponential CDF identity
	}

	for _, tc := range cases {
		p, err := regularizedGammaP(tc.a, tc.x)
		if err != nil {
			t.Fatalf("P(%v,%v): %v", tc.a, tc.x, err)
		}
		if !almostEqual(p, tc.p, 1e-4) {
			t.Errorf("P(%v,%v)=%v, want %v", tc.a, tc.x, p, tc.p)
		}
	}
}

func TestRegularizedGammaComplement(t *testing.T) {
	for _, a := range []float64{0.5, 1, 2, 5, 17.5} {
		for _, x := range []float64{0.01, 0.5, 1, 3, 10, 40} {
			p, err := regularizedGammaP(a, x)
			if err != nil {
				t.Fatalf("P(%v,%v): %v", a, x, err)
			}
			q, err := RegularizedGammaQ(a, x)
			if err != nil {
				t.Fatalf("Q(%v,%v): %v", a, x, err)
			}
			if !almostEqual(p+q, 1, 1e-10) {
				t.Errorf("P+Q=%v at a=%v x=%v", p+q, a, x)
			}
		}
	}
}

func TestRegularizedGammaDomainErrors(t *testing.T) {
	if _, err := regularizedGammaP(0, 1); err == nil {
		t.Error("a=0 must fail")
	}
	if _, err := regularizedGammaP(1, -1); err == nil {
		t.Error("x<0 must fail")
	}
	if _, err := RegularizedGammaQ(-2, 1); err == nil {
		t.Error("a<0 must fail")
	}
	if _, err := RegularizedGammaQ(1, math.NaN()); err == nil {
		t.Error("NaN must fail")
	}
}

func TestChiSquareSurvivalKnownQuantiles(t *testing.T) {
	// Classical critical values: Pr[chi2_df >= x].
	cases := []struct {
		x   float64
		df  int
		p   float64
		tol float64
	}{
		{3.841459, 1, 0.05, 1e-5},
		{6.634897, 1, 0.01, 1e-5},
		{10.82757, 1, 0.001, 1e-5},
		{5.991465, 2, 0.05, 1e-5},
		{9.487729, 4, 0.05, 1e-5},
		{18.30704, 10, 0.05, 1e-5},
	}
	for _, tc := range cases {
		p, err := ChiSquareSurvival(tc.x, tc.df)
		if err != nil {
			t.Fatalf("ChiSquareSurvival(%v,%d): %v", tc.x, tc.df, err)
		}
		if !almostEqual(p, tc.p, tc.tol) {
			t.Errorf("SF(%v, df=%d)=%v, want %v", tc.x, tc.df, p, tc.p)
		}
	}
}

func TestChiSquareSurvivalEdges(t *testing.T) {
	if p, err := ChiSquareSurvival(0, 1); err != nil || p != 1 {
		t.Errorf("SF(0)=%v,%v; want 1,nil", p, err)
	}
	if p, err := ChiSquareSurvival(-3, 2); err != nil || p != 1 {
		t.Errorf("SF(-3)=%v,%v; want 1,nil", p, err)
	}
	if _, err := ChiSquareSurvival(1, 0); err == nil {
		t.Error("df=0 must fail")
	}
	if _, err := ChiSquareSurvival(math.NaN(), 1); err == nil {
		t.Error("NaN must fail")
	}
	p, err := ChiSquareSurvival(1e6, 1)
	if err != nil {
		t.Fatalf("huge statistic: %v", err)
	}
	if p < 0 || p > 1e-100 {
		t.Errorf("SF(1e6) = %v, want ~0", p)
	}
}

func TestChiSquareDf1MatchesGeneralPath(t *testing.T) {
	// The fast erfc path for df=1 must agree with the incomplete gamma.
	for _, x := range []float64{0.01, 0.3, 1, 2.7, 5, 12, 30} {
		fast, err := ChiSquareSurvival(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := RegularizedGammaQ(0.5, x/2)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(fast, slow, 1e-12) {
			t.Errorf("x=%v: erfc path %v vs gamma path %v", x, fast, slow)
		}
	}
}

// Property: survival function is monotonically non-increasing in x and lies
// in [0, 1].
func TestQuickChiSquareMonotone(t *testing.T) {
	f := func(rawX float64, rawDF uint8) bool {
		x := math.Abs(rawX)
		if math.IsInf(x, 0) || math.IsNaN(x) || x > 1e6 {
			return true
		}
		df := int(rawDF%20) + 1
		p1, err := ChiSquareSurvival(x, df)
		if err != nil {
			return false
		}
		p2, err := ChiSquareSurvival(x+1, df)
		if err != nil {
			return false
		}
		return p1 >= p2-1e-12 && p1 >= 0 && p1 <= 1 && p2 >= 0 && p2 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

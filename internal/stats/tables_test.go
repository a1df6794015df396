package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"gendpr/internal/genome"
)

func TestNewSingleTable(t *testing.T) {
	tab, err := NewSingleTable(100, 30, 200, 50)
	if err != nil {
		t.Fatalf("NewSingleTable: %v", err)
	}
	if tab.CaseMajor != 70 || tab.ControlMajor != 150 {
		t.Errorf("major counts %d/%d, want 70/150", tab.CaseMajor, tab.ControlMajor)
	}
	if tab.CaseTotal() != 100 || tab.ControlTotal() != 200 || tab.Total() != 300 {
		t.Errorf("totals %d/%d/%d", tab.CaseTotal(), tab.ControlTotal(), tab.Total())
	}
}

func TestNewSingleTableRejectsInconsistent(t *testing.T) {
	if _, err := NewSingleTable(10, 11, 10, 5); err == nil {
		t.Error("minor > N must fail")
	}
	if _, err := NewSingleTable(10, -1, 10, 5); err == nil {
		t.Error("negative count must fail")
	}
}

func TestChiSquarePaper(t *testing.T) {
	tab := SingleTable{CaseMinor: 30, ControlMinor: 20, CaseMajor: 70, ControlMajor: 80}
	want := float64(30-20) * float64(30-20) / 20
	if got := tab.ChiSquarePaper(); got != want {
		t.Errorf("ChiSquarePaper=%v, want %v", got, want)
	}
	zero := SingleTable{}
	if got := zero.ChiSquarePaper(); got != 0 {
		t.Errorf("all-zero table: %v, want 0", got)
	}
	inf := SingleTable{CaseMinor: 5}
	if got := inf.ChiSquarePaper(); !math.IsInf(got, 1) {
		t.Errorf("control=0,case>0: %v, want +Inf", got)
	}
}

func TestChiSquarePearsonKnownValue(t *testing.T) {
	// Hand-computed: a=10 b=20 c=30 d=40, n=100.
	// chi2 = n(ad-bc)^2 / (r1 r2 c1 c2) = 100*(400-600)^2/(30*70*40*60).
	tab := SingleTable{CaseMinor: 10, ControlMinor: 20, CaseMajor: 30, ControlMajor: 40}
	want := 100.0 * 200 * 200 / (30.0 * 70 * 40 * 60)
	if got := tab.ChiSquare(); !almostEqual(got, want, 1e-12) {
		t.Errorf("ChiSquare=%v, want %v", got, want)
	}
}

func TestChiSquareDegenerateMargins(t *testing.T) {
	// Monomorphic SNP: no minor alleles anywhere.
	tab := SingleTable{CaseMajor: 50, ControlMajor: 60}
	if got := tab.ChiSquare(); got != 0 {
		t.Errorf("degenerate table chi2=%v, want 0", got)
	}
}

func TestChiSquareIndependenceIsZero(t *testing.T) {
	// Perfectly proportional table has no association.
	tab := SingleTable{CaseMinor: 10, CaseMajor: 90, ControlMinor: 20, ControlMajor: 180}
	if got := tab.ChiSquare(); !almostEqual(got, 0, 1e-12) {
		t.Errorf("proportional table chi2=%v, want 0", got)
	}
}

func TestAssocPValue(t *testing.T) {
	tab := SingleTable{CaseMinor: 100, ControlMinor: 50, CaseMajor: 900, ControlMajor: 950}
	pPaper, err := tab.AssocPValue(true)
	if err != nil {
		t.Fatalf("paper form: %v", err)
	}
	pStd, err := tab.AssocPValue(false)
	if err != nil {
		t.Fatalf("standard form: %v", err)
	}
	for name, p := range map[string]float64{"paper": pPaper, "standard": pStd} {
		if p <= 0 || p >= 1 {
			t.Errorf("%s p-value %v outside (0,1)", name, p)
		}
	}
	// Infinite paper statistic maps to p = 0.
	inf := SingleTable{CaseMinor: 5}
	p, err := inf.AssocPValue(true)
	if err != nil || p != 0 {
		t.Errorf("infinite statistic p=%v err=%v, want 0,nil", p, err)
	}
}

func TestOddsRatio(t *testing.T) {
	tab := SingleTable{CaseMinor: 20, CaseMajor: 80, ControlMinor: 10, ControlMajor: 90}
	want := (20.0 * 90) / (10.0 * 80)
	if got := tab.OddsRatio(); !almostEqual(got, want, 1e-12) {
		t.Errorf("OddsRatio=%v, want %v", got, want)
	}
	// Haldane-Anscombe correction keeps empty cells finite.
	zero := SingleTable{CaseMinor: 5, CaseMajor: 95, ControlMinor: 0, ControlMajor: 100}
	or := zero.OddsRatio()
	if math.IsInf(or, 0) || math.IsNaN(or) || or <= 1 {
		t.Errorf("corrected odds ratio %v, want finite > 1", or)
	}
	mono := SingleTable{CaseMajor: 10, ControlMajor: 10}
	orMono := mono.OddsRatio()
	if orMono != 1 {
		t.Errorf("monomorphic odds ratio %v, want 1", orMono)
	}
	empty := SingleTable{}
	if got := empty.OddsRatio(); got != 1 {
		t.Errorf("empty table odds ratio %v, want 1", got)
	}
}

// pairTable is the pairwise contingency table of the paper's Table 2b over
// two SNP positions, the oracle the sufficient-statistic r^2 is checked
// against: counts of the four minor/major combinations.
type pairTable struct {
	C00 int64 // major, major
	C01 int64 // major at l1, minor at l2
	C10 int64 // minor at l1, major at l2
	C11 int64 // minor, minor
}

// Totals returns the margins (C0-, C1-, C-0, C-1) and the grand total.
func (t pairTable) Totals() (r0, r1, c0, c1, n int64) {
	r0 = t.C00 + t.C01
	r1 = t.C10 + t.C11
	c0 = t.C00 + t.C10
	c1 = t.C01 + t.C11
	n = r0 + r1
	return
}

// R2 computes the linkage-disequilibrium statistic of Section 3.1:
// r^2 = (C00*C11 - C01*C10)^2 / (C0-*C1-*C-0*C-1). Degenerate tables (an
// empty margin, meaning one SNP is monomorphic) yield 0.
func (t pairTable) R2() float64 {
	r0, r1, c0, c1, _ := t.Totals()
	den := float64(r0) * float64(r1) * float64(c0) * float64(c1)
	if den == 0 {
		return 0
	}
	det := float64(t.C00)*float64(t.C11) - float64(t.C01)*float64(t.C10)
	return det * det / den
}

// pairTableFromStats reconstructs the pairwise contingency table of Table 2b
// from binary-genotype sufficient statistics.
func pairTableFromStats(s genome.PairStats) pairTable {
	return pairTable{
		C11: s.SumXY,
		C10: s.SumX - s.SumXY,
		C01: s.SumY - s.SumXY,
		C00: s.N - s.SumX - s.SumY + s.SumXY,
	}
}

func TestPairTableR2PerfectCorrelation(t *testing.T) {
	tab := pairTable{C00: 50, C11: 50}
	if got := tab.R2(); !almostEqual(got, 1, 1e-12) {
		t.Errorf("perfect correlation r2=%v, want 1", got)
	}
	anti := pairTable{C01: 50, C10: 50}
	if got := anti.R2(); !almostEqual(got, 1, 1e-12) {
		t.Errorf("perfect anti-correlation r2=%v, want 1", got)
	}
}

func TestPairTableR2Independence(t *testing.T) {
	// Independent: cell counts proportional to margin products.
	tab := pairTable{C00: 36, C01: 24, C10: 24, C11: 16}
	if got := tab.R2(); !almostEqual(got, 0, 1e-12) {
		t.Errorf("independent table r2=%v, want 0", got)
	}
}

func TestPairTableR2Degenerate(t *testing.T) {
	tab := pairTable{C00: 100} // both SNPs monomorphic
	if got := tab.R2(); got != 0 {
		t.Errorf("degenerate r2=%v, want 0", got)
	}
}

func TestR2FromStatsMatchesTable(t *testing.T) {
	// Build a small genotype matrix, compare the sufficient-statistic path
	// with the explicit contingency table.
	m := genome.NewMatrix(8, 2)
	pattern := [][2]bool{
		{false, false}, {true, true}, {true, false}, {false, true},
		{true, true}, {false, false}, {true, true}, {false, false},
	}
	for i, p := range pattern {
		m.Set(i, 0, p[0])
		m.Set(i, 1, p[1])
	}
	s := m.PairStats(0, 1)
	tab := pairTableFromStats(s)
	var want pairTable
	for _, p := range pattern {
		switch {
		case !p[0] && !p[1]:
			want.C00++
		case !p[0] && p[1]:
			want.C01++
		case p[0] && !p[1]:
			want.C10++
		default:
			want.C11++
		}
	}
	if tab != want {
		t.Fatalf("pairTableFromStats=%+v, want %+v", tab, want)
	}
	r2, err := R2FromStatsChecked(s)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r2, tab.R2(), 1e-12) {
		t.Errorf("sufficient-statistic r2 %v != table r2 %v", r2, tab.R2())
	}
}

func TestLDPValueHighVsLowCorrelation(t *testing.T) {
	correlated := genome.PairStats{N: 1000, SumX: 500, SumY: 500, SumXY: 490, SumXX: 500, SumYY: 500}
	independent := genome.PairStats{N: 1000, SumX: 500, SumY: 500, SumXY: 250, SumXX: 500, SumYY: 500}
	pHigh, err := LDPValue(correlated)
	if err != nil {
		t.Fatal(err)
	}
	pLow, err := LDPValue(independent)
	if err != nil {
		t.Fatal(err)
	}
	if pHigh >= 1e-5 {
		t.Errorf("strongly correlated pair p=%v, want < 1e-5", pHigh)
	}
	if pLow < 0.5 {
		t.Errorf("independent pair p=%v, want large", pLow)
	}
}

func TestLDPValueDegeneratePairs(t *testing.T) {
	cases := []struct {
		name string
		s    genome.PairStats
	}{
		{"empty pool", genome.PairStats{}},
		{"monomorphic x (all zero)", genome.PairStats{N: 100, SumY: 50, SumYY: 50, SumXY: 0}},
		{"monomorphic x (all one)", genome.PairStats{N: 100, SumX: 100, SumXX: 100, SumY: 50, SumYY: 50, SumXY: 50}},
		{"monomorphic y (all zero)", genome.PairStats{N: 100, SumX: 50, SumXX: 50}},
		{"monomorphic y (all one)", genome.PairStats{N: 100, SumX: 50, SumXX: 50, SumY: 100, SumYY: 100, SumXY: 50}},
		{"both monomorphic", genome.PairStats{N: 100, SumX: 100, SumXX: 100, SumY: 100, SumYY: 100, SumXY: 100}},
		{"single sample", genome.PairStats{N: 1, SumX: 1, SumXX: 1, SumY: 1, SumYY: 1, SumXY: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LDPValue(tc.s); !errors.Is(err, ErrDegeneratePair) {
				t.Errorf("LDPValue error = %v, want ErrDegeneratePair", err)
			}
			if _, err := R2FromStatsChecked(tc.s); !errors.Is(err, ErrDegeneratePair) {
				t.Errorf("R2FromStatsChecked error = %v, want ErrDegeneratePair", err)
			}
		})
	}
}

func TestR2FromStatsCheckedPolymorphicPair(t *testing.T) {
	s := genome.PairStats{N: 1000, SumX: 500, SumY: 500, SumXY: 490, SumXX: 500, SumYY: 500}
	r2, err := R2FromStatsChecked(s)
	if err != nil {
		t.Fatalf("R2FromStatsChecked: %v", err)
	}
	if want := pairTableFromStats(s).R2(); !almostEqual(r2, want, 1e-12) {
		t.Errorf("r2 %v != table r2 %v", r2, want)
	}
	if math.IsNaN(r2) || r2 <= 0 || r2 > 1 {
		t.Errorf("r2 = %v out of range", r2)
	}
}

// Property: aggregating pair stats across shards equals computing them on the
// pooled matrix — the exactness guarantee behind Table 4's GenDPR ==
// centralized result for the LD phase.
func TestQuickAggregatedPairStatsExact(t *testing.T) {
	f := func(seed int64, rawN, rawParts uint8) bool {
		n := int(rawN%50) + 4
		parts := int(rawParts%3) + 2
		if parts > n {
			parts = n
		}
		m := randomBinaryMatrix(seed, n, 6)
		cohort := genome.Cohort{Case: m, Reference: genome.NewMatrix(1, 6)}
		shards, err := cohort.Partition(parts)
		if err != nil {
			return false
		}
		var agg genome.PairStats
		for _, s := range shards {
			agg = agg.Add(s.PairStats(1, 4))
		}
		want := m.PairStats(1, 4)
		r2Agg, errAgg := R2FromStatsChecked(agg)
		r2Want, errWant := R2FromStatsChecked(want)
		return agg == want && r2Agg == r2Want && (errAgg == nil) == (errWant == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randomBinaryMatrix(seed int64, n, l int) *genome.Matrix {
	m := genome.NewMatrix(n, l)
	state := uint64(seed)*2654435761 + 1
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < n; i++ {
		for j := 0; j < l; j++ {
			if next()&1 == 1 {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

func TestMAF(t *testing.T) {
	if got := MAF(5, 100); got != 0.05 {
		t.Errorf("MAF=%v, want 0.05", got)
	}
	if got := MAF(5, 0); got != 0 {
		t.Errorf("MAF with total 0 = %v, want 0", got)
	}
}

func TestSumCounts(t *testing.T) {
	got, err := SumCounts([]int64{1, 2}, []int64{10, 20}, []int64{100, 200})
	if err != nil {
		t.Fatalf("SumCounts: %v", err)
	}
	if got[0] != 111 || got[1] != 222 {
		t.Errorf("SumCounts=%v", got)
	}
	if _, err := SumCounts([]int64{1}, []int64{1, 2}); err == nil {
		t.Error("length mismatch must fail")
	}
	nilSum, err := SumCounts()
	if err != nil || nilSum != nil {
		t.Errorf("empty SumCounts = %v, %v", nilSum, err)
	}
}

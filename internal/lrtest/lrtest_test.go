package lrtest

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"gendpr/internal/genome"
)

func buildCohort(t testing.TB, snps, caseN int, seed int64) (*genome.Cohort, []float64, []float64) {
	t.Helper()
	cfg := genome.DefaultGeneratorConfig(snps, caseN, seed)
	cohort, err := genome.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	caseFreq := genome.Frequencies(cohort.Case.AlleleCounts(), int64(cohort.Case.N()))
	refFreq := genome.Frequencies(cohort.Reference.AlleleCounts(), int64(cohort.Reference.N()))
	return cohort, caseFreq, refFreq
}

func TestNewLogRatiosShapes(t *testing.T) {
	if _, err := NewLogRatios([]float64{0.1}, []float64{0.1, 0.2}); err == nil {
		t.Fatal("length mismatch must fail")
	}
	lr, err := NewLogRatios([]float64{0.2}, []float64{0.1})
	if err != nil {
		t.Fatalf("NewLogRatios: %v", err)
	}
	if !almostEqual(lr.Minor[0], math.Log(2), 1e-12) {
		t.Errorf("minor ratio %v, want log 2", lr.Minor[0])
	}
	if !almostEqual(lr.Major[0], math.Log(0.8/0.9), 1e-12) {
		t.Errorf("major ratio %v, want log(0.8/0.9)", lr.Major[0])
	}
}

func TestNewLogRatiosClampsExtremes(t *testing.T) {
	lr, err := NewLogRatios([]float64{0, 1}, []float64{1, 0})
	if err != nil {
		t.Fatalf("NewLogRatios: %v", err)
	}
	for _, v := range append(append([]float64{}, lr.Minor...), lr.Major...) {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("clamping failed: got %v", v)
		}
	}
}

func TestBuildMatchesEquationOne(t *testing.T) {
	g := genome.NewMatrix(2, 3)
	g.Set(0, 0, true)
	g.Set(1, 2, true)
	caseFreq := []float64{0.4, 0.2, 0.3}
	refFreq := []float64{0.2, 0.2, 0.5}
	ratios, err := NewLogRatios(caseFreq, refFreq)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildBit(g, ratios)
	if err != nil {
		t.Fatalf("BuildBit: %v", err)
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	// Individual 0, SNP 0 carries the minor allele.
	if want := math.Log(0.4 / 0.2); !almostEqual(m.At(0, 0), want, 1e-12) {
		t.Errorf("minor cell %v, want %v", m.At(0, 0), want)
	}
	// Individual 0, SNP 2 carries the major allele.
	if want := math.Log(0.7 / 0.5); !almostEqual(m.At(0, 2), want, 1e-12) {
		t.Errorf("major cell %v, want %v", m.At(0, 2), want)
	}
	// Identical frequencies contribute exactly zero.
	if m.At(0, 1) != 0 || m.At(1, 1) != 0 {
		t.Errorf("equal-frequency SNP must contribute 0: %v, %v", m.At(0, 1), m.At(1, 1))
	}
}

func TestBuildShapeMismatch(t *testing.T) {
	g := genome.NewMatrix(1, 2)
	ratios, _ := NewLogRatios([]float64{0.1}, []float64{0.1})
	if _, err := BuildBit(g, ratios); err == nil {
		t.Fatal("expected shape mismatch")
	}
}

func TestMergeConcatenatesRows(t *testing.T) {
	a := NewBitMatrix(2, 3)
	b := NewBitMatrix(1, 3)
	a.one[0], a.bits[0*a.wpc] = 1, 0b01 // (0,0) = 1
	a.one[2], a.bits[2*a.wpc] = 2, 0b10 // (1,2) = 2
	b.one[1], b.bits[1*b.wpc] = 3, 0b1  // (0,1) = 3
	m, err := MergeBits(a, b)
	if err != nil {
		t.Fatalf("MergeBits: %v", err)
	}
	if m.Rows() != 3 || m.Cols() != 3 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	if m.At(0, 0) != 1 || m.At(1, 2) != 2 || m.At(2, 1) != 3 || m.At(1, 0) != 0 {
		t.Error("merged content wrong")
	}
	if _, err := MergeBits(a, NewBitMatrix(1, 4)); err == nil {
		t.Error("column mismatch must fail")
	}
	empty, err := MergeBits()
	if err != nil || empty.Rows() != 0 {
		t.Errorf("empty merge: %v, %v", empty, err)
	}
}

// scoreSubset sums each row's contributions over the given column subset,
// producing per-individual LR statistics: columns accumulate in subset order
// and rows ascending. It is the oracle the selection's incremental scores
// and detection power are checked against.
func scoreSubset(m *BitMatrix, cols []int) []float64 {
	scores := make([]float64, m.rows)
	for _, j := range cols {
		if j < 0 || j >= m.cols {
			panic(fmt.Sprintf("lrtest: column %d out of range for %d columns", j, m.cols))
		}
		m.addColumn(scores, scores, j)
	}
	return scores
}

func TestScoreSubset(t *testing.T) {
	m := NewBitMatrix(2, 4)
	for j := 0; j < 4; j++ {
		m.zero[j], m.one[j] = float64(j), float64(j)*10
		m.bits[j*m.wpc] = 0b10 // row 1 decodes to one[j]
	}
	scores := scoreSubset(m, []int{1, 3})
	if scores[0] != 4 || scores[1] != 40 {
		t.Errorf("scores %v, want [4 40]", scores)
	}
	if s := scoreSubset(m, nil); s[0] != 0 || s[1] != 0 {
		t.Errorf("empty subset scores %v", s)
	}
}

func TestThresholdQuantile(t *testing.T) {
	scores := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tau := Threshold(scores, 0.1)
	// At α=0.1 exactly one of ten reference scores may exceed τ.
	above := 0
	for _, s := range scores {
		if s > tau {
			above++
		}
	}
	if above > 1 {
		t.Errorf("τ=%v lets %d/10 reference scores through, want <=1", tau, above)
	}
	if got := Threshold(nil, 0.1); !math.IsInf(got, 1) {
		t.Errorf("empty reference: τ=%v, want +Inf", got)
	}
}

func TestThresholdFalsePositiveRateBound(t *testing.T) {
	for _, alpha := range []float64{0.01, 0.05, 0.1, 0.25} {
		for _, n := range []int{10, 97, 1000} {
			scores := make([]float64, n)
			for i := range scores {
				scores[i] = float64(i * i % 977)
			}
			tau := Threshold(scores, alpha)
			fpr := Power(scores, tau) // reuse Power as "fraction above"
			if fpr > alpha+1e-12 {
				t.Errorf("alpha=%v n=%d: realized FPR %v exceeds alpha", alpha, n, fpr)
			}
		}
	}
}

func TestPower(t *testing.T) {
	if p := Power([]float64{1, 2, 3, 4}, 2.5); p != 0.5 {
		t.Errorf("power %v, want 0.5", p)
	}
	if p := Power(nil, 0); p != 0 {
		t.Errorf("empty case power %v, want 0", p)
	}
}

func TestSelectSafeBoundsPower(t *testing.T) {
	cohort, caseFreq, refFreq := buildCohort(t, 120, 400, 5)
	ratios, err := NewLogRatios(caseFreq, refFreq)
	if err != nil {
		t.Fatal(err)
	}
	caseLR, err := BuildBit(cohort.Case, ratios)
	if err != nil {
		t.Fatal(err)
	}
	refLR, err := BuildBit(cohort.Reference, ratios)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	res, err := selectBit(caseLR, refLR, params)
	if err != nil {
		t.Fatalf("selectBit: %v", err)
	}
	if res.Power >= params.PowerThreshold {
		t.Errorf("selected subset has power %v >= threshold %v", res.Power, params.PowerThreshold)
	}
	if res.Iterations != 120 {
		t.Errorf("iterations %d, want one per column", res.Iterations)
	}
	if !sort.IntsAreSorted(res.Safe) {
		t.Error("safe subset must be sorted")
	}
	// Re-evaluating the returned subset must reproduce the reported power.
	p := Power(scoreSubset(caseLR, res.Safe), Threshold(scoreSubset(refLR, res.Safe), params.Alpha))
	if len(res.Safe) > 0 && !almostEqual(p, res.Power, 1e-12) {
		t.Errorf("re-evaluated power %v != reported %v", p, res.Power)
	}
}

func TestSelectSafeDeterministic(t *testing.T) {
	cohort, caseFreq, refFreq := buildCohort(t, 80, 300, 9)
	ratios, _ := NewLogRatios(caseFreq, refFreq)
	caseLR, _ := BuildBit(cohort.Case, ratios)
	refLR, _ := BuildBit(cohort.Reference, ratios)
	a, err := selectBit(caseLR, refLR, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := selectBit(caseLR, refLR, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Safe) != len(b.Safe) {
		t.Fatal("non-deterministic selection size")
	}
	for i := range a.Safe {
		if a.Safe[i] != b.Safe[i] {
			t.Fatal("non-deterministic selection content")
		}
	}
}

func TestSelectSafeMergedEqualsPooled(t *testing.T) {
	// The distributed-exactness property: building LR matrices per shard
	// with pooled frequencies and merging equals building over the pooled
	// matrix directly.
	cohort, caseFreq, refFreq := buildCohort(t, 60, 240, 11)
	ratios, _ := NewLogRatios(caseFreq, refFreq)
	pooled, err := BuildBit(cohort.Case, ratios)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := cohort.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*BitMatrix, len(shards))
	for i, s := range shards {
		parts[i], err = BuildBit(s, ratios)
		if err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeBits(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Equal(pooled) {
		t.Fatal("merged shard LR-matrices differ from pooled LR-matrix")
	}
}

func TestSelectSafeObliviousMatchesDirect(t *testing.T) {
	cohort, caseFreq, refFreq := buildCohort(t, 90, 350, 29)
	ratios, _ := NewLogRatios(caseFreq, refFreq)
	caseLR, _ := BuildBit(cohort.Case, ratios)
	refLR, _ := BuildBit(cohort.Reference, ratios)

	direct, err := selectBit(caseLR, refLR, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Oblivious = true
	obliv, err := selectBit(caseLR, refLR, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Safe) != len(obliv.Safe) {
		t.Fatalf("oblivious selected %d SNPs, direct %d", len(obliv.Safe), len(direct.Safe))
	}
	for i := range direct.Safe {
		if direct.Safe[i] != obliv.Safe[i] {
			t.Fatalf("selection differs at %d: %d vs %d", i, direct.Safe[i], obliv.Safe[i])
		}
	}
	if direct.Power != obliv.Power {
		t.Errorf("powers differ: %v vs %v", direct.Power, obliv.Power)
	}
}

func TestSelectSafeParamsValidation(t *testing.T) {
	m := NewBitMatrix(1, 1)
	if _, err := selectBit(m, m, Params{Alpha: 0, PowerThreshold: 0.9}); err == nil {
		t.Error("alpha=0 must fail")
	}
	if _, err := selectBit(m, m, Params{Alpha: 0.1, PowerThreshold: 1.5}); err == nil {
		t.Error("power>1 must fail")
	}
	if _, err := new(Selector).SelectSafeBitWithOrder(NewBitMatrix(1, 2), NewBitMatrix(1, 3), DefaultParams(), []int{0, 1}); err == nil {
		t.Error("column mismatch must fail")
	}
}

func TestSelectSafeEmptyMatrix(t *testing.T) {
	res, err := selectBit(NewBitMatrix(0, 0), NewBitMatrix(0, 0), DefaultParams())
	if err != nil {
		t.Fatalf("selectBit empty: %v", err)
	}
	if len(res.Safe) != 0 {
		t.Errorf("empty matrix selected %v", res.Safe)
	}
}

func TestAdversaryPowerBoundedOnSafeRelease(t *testing.T) {
	cohort, caseFreq, refFreq := buildCohort(t, 100, 500, 21)
	ratios, _ := NewLogRatios(caseFreq, refFreq)
	caseLR, _ := BuildBit(cohort.Case, ratios)
	refLR, _ := BuildBit(cohort.Reference, ratios)
	params := DefaultParams()
	res, err := selectBit(caseLR, refLR, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Safe) == 0 {
		t.Skip("no safe SNPs selected for this seed; nothing to attack")
	}

	releasedCase := subsetFloats(caseFreq, res.Safe)
	releasedRef := subsetFloats(refFreq, res.Safe)
	refSubset := cohort.Reference.SelectColumns(res.Safe)
	adv, err := NewAdversary(releasedCase, releasedRef, refSubset, params.Alpha)
	if err != nil {
		t.Fatalf("NewAdversary: %v", err)
	}
	power, err := adv.DetectionPower(cohort.Case.SelectColumns(res.Safe))
	if err != nil {
		t.Fatal(err)
	}
	if power >= params.PowerThreshold {
		t.Errorf("attack power %v over safe release >= %v", power, params.PowerThreshold)
	}
}

func TestAdversaryRejectsShapeMismatch(t *testing.T) {
	adv, err := NewAdversary([]float64{0.3, 0.4}, []float64{0.2, 0.2}, genome.NewMatrix(4, 2), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adv.Score([]bool{true}); err == nil {
		t.Error("short victim must fail")
	}
	if _, err := adv.DetectionPower(genome.NewMatrix(2, 3)); err == nil {
		t.Error("cohort shape mismatch must fail")
	}
	if p, err := adv.DetectionPower(genome.NewMatrix(0, 2)); err != nil || p != 0 {
		t.Errorf("empty cohort power=%v err=%v", p, err)
	}
}

func subsetFloats(v []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = v[j]
	}
	return out
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

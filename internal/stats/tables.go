package stats

import (
	"errors"
	"math"
)

// SingleTable is the per-SNP singlewise contingency table of the paper's
// Table 2a: minor/major allele counts split by case and control population.
type SingleTable struct {
	CaseMinor    int64
	CaseMajor    int64
	ControlMinor int64
	ControlMajor int64
}

// NewSingleTable builds the table from population sizes and minor-allele
// counts.
func NewSingleTable(caseN, caseMinor, controlN, controlMinor int64) (SingleTable, error) {
	if caseMinor < 0 || controlMinor < 0 || caseMinor > caseN || controlMinor > controlN {
		// The counts are pre-release aggregates: the message must not
		// carry them (error strings are host-visible).
		return SingleTable{}, errors.New("stats: inconsistent case/control counts")
	}
	return SingleTable{
		CaseMinor:    caseMinor,
		CaseMajor:    caseN - caseMinor,
		ControlMinor: controlMinor,
		ControlMajor: controlN - controlMinor,
	}, nil
}

// CaseTotal returns N^case.
func (t SingleTable) CaseTotal() int64 { return t.CaseMinor + t.CaseMajor }

// ControlTotal returns N^control.
func (t SingleTable) ControlTotal() int64 { return t.ControlMinor + t.ControlMajor }

// Total returns N_T.
func (t SingleTable) Total() int64 { return t.CaseTotal() + t.ControlTotal() }

// ChiSquarePaper computes the association statistic in the simplified form
// the paper states in Section 3.1: chi^2 = (N_i^case - N_i^control)^2 /
// N_i^control over the minor-allele counts. It returns +Inf when the control
// count is zero and the case count is not, and 0 when both are zero.
func (t SingleTable) ChiSquarePaper() float64 {
	diff := float64(t.CaseMinor - t.ControlMinor)
	if t.ControlMinor == 0 {
		if t.CaseMinor == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return diff * diff / float64(t.ControlMinor)
}

// ChiSquare computes the standard Pearson chi-square statistic of the 2x2
// allele-by-population table, the form GWAS tooling conventionally uses. It
// returns 0 for degenerate tables (an empty margin).
func (t SingleTable) ChiSquare() float64 {
	a, b := float64(t.CaseMinor), float64(t.ControlMinor)
	c, d := float64(t.CaseMajor), float64(t.ControlMajor)
	n := a + b + c + d
	r1, r2 := a+b, c+d
	c1, c2 := a+c, b+d
	if r1 == 0 || r2 == 0 || c1 == 0 || c2 == 0 {
		return 0
	}
	det := a*d - b*c
	return n * det * det / (r1 * r2 * c1 * c2)
}

// AssocPValue returns the chi-square(1) p-value of the association statistic.
// When paperForm is true the paper's simplified statistic is used; otherwise
// the standard Pearson form.
func (t SingleTable) AssocPValue(paperForm bool) (float64, error) {
	var x float64
	if paperForm {
		x = t.ChiSquarePaper()
	} else {
		x = t.ChiSquare()
	}
	if math.IsInf(x, 1) {
		return 0, nil
	}
	return ChiSquareSurvival(x, 1)
}

// OddsRatio returns the allelic odds ratio (case odds of carrying the minor
// allele over control odds), with the Haldane-Anscombe 0.5 correction when
// any cell is empty. A monomorphic table returns 1 (no association).
func (t SingleTable) OddsRatio() float64 {
	a, b := float64(t.CaseMinor), float64(t.ControlMinor)
	c, d := float64(t.CaseMajor), float64(t.ControlMajor)
	if a+b == 0 || c+d == 0 {
		return 1
	}
	if a == 0 || b == 0 || c == 0 || d == 0 {
		a += 0.5
		b += 0.5
		c += 0.5
		d += 0.5
	}
	return (a * d) / (b * c)
}

package lrtest

import "fmt"

// Adversary models the paper's threat: an attacker holding a victim's
// genotype, the released pooled case frequencies over some SNP set, and a
// reference panel with a similar allele distribution. It decides membership
// by comparing the victim's LR statistic against the threshold calibrated on
// the reference panel (Homer-style attack strengthened with the SecureGenome
// LR statistic).
type Adversary struct {
	ratios LogRatios
	tau    float64
}

// NewAdversary calibrates an adversary from released case frequencies, the
// matching reference frequencies, and reference genotypes, at false-positive
// rate alpha. The released SNP set is implicit in the frequency vectors: they
// must already be restricted to the released columns.
func NewAdversary(releasedCaseFreq, refFreq []float64, reference Genotypes, alpha float64) (*Adversary, error) {
	ratios, err := NewLogRatios(releasedCaseFreq, refFreq)
	if err != nil {
		return nil, err
	}
	a := &Adversary{ratios: ratios}
	refScores, err := a.scores(reference)
	if err != nil {
		return nil, fmt.Errorf("score reference panel: %w", err)
	}
	a.tau = Threshold(refScores, alpha)
	return a, nil
}

// Score computes the victim's LR statistic over the released SNPs. The
// genotype slice must align with the released frequency vectors.
func (a *Adversary) Score(victim []bool) (float64, error) {
	if len(victim) != len(a.ratios.Minor) {
		return 0, fmt.Errorf("%w: victim has %d SNPs, release has %d",
			ErrShapeMismatch, len(victim), len(a.ratios.Minor))
	}
	var lr float64
	for l, minor := range victim {
		if minor {
			lr += a.ratios.Minor[l]
		} else {
			lr += a.ratios.Major[l]
		}
	}
	return lr, nil
}

// ClaimsMembership reports whether the adversary would declare the victim a
// study participant.
func (a *Adversary) ClaimsMembership(victim []bool) (bool, error) {
	s, err := a.Score(victim)
	if err != nil {
		return false, err
	}
	return s > a.tau, nil
}

// Threshold exposes the calibrated decision threshold τ.
func (a *Adversary) Threshold() float64 { return a.tau }

// DetectionPower runs the adversary against every genotype of a cohort and
// returns the fraction it would (correctly) flag — the empirical power of the
// membership attack against that release.
func (a *Adversary) DetectionPower(cohort Genotypes) (float64, error) {
	scores, err := a.scores(cohort)
	if err != nil {
		return 0, err
	}
	return Power(scores, a.tau), nil
}

// scores computes Score for every individual of a cohort.
func (a *Adversary) scores(cohort Genotypes) ([]float64, error) {
	if cohort.L() != len(a.ratios.Minor) {
		return nil, fmt.Errorf("%w: cohort has %d SNPs, release has %d",
			ErrShapeMismatch, cohort.L(), len(a.ratios.Minor))
	}
	out := make([]float64, cohort.N())
	victim := make([]bool, cohort.L())
	for i := range out {
		for l := range victim {
			victim[l] = cohort.Get(i, l)
		}
		s, err := a.Score(victim)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

package lrtest

import (
	"fmt"
	"math"
)

// Params configures the safety criterion: a SNP subset is safe to release
// when the LR-test's detection power over it stays below PowerThreshold at
// false-positive rate Alpha. The paper adopts SecureGenome's settings of
// α = 0.1 and β = 0.9.
type Params struct {
	// Alpha is the tolerated false-positive rate used to place the decision
	// threshold on the reference (null) LR distribution.
	Alpha float64
	// PowerThreshold is the maximum tolerated identification power over the
	// case population.
	PowerThreshold float64
	// Oblivious evaluates thresholds and powers with data-oblivious
	// primitives (bitonic sorting networks, branchless counting) so the
	// enclave's memory trace is independent of the scores — the
	// side-channel hardening the paper leaves as future work. The selected
	// subset is identical either way.
	Oblivious bool
}

// DefaultParams returns SecureGenome's suggested settings.
func DefaultParams() Params {
	return Params{Alpha: 0.1, PowerThreshold: 0.9}
}

// Validate checks the parameters are probabilities.
func (p Params) Validate() error {
	if p.Alpha <= 0 || p.Alpha >= 1 {
		return fmt.Errorf("lrtest: alpha %v outside (0,1)", p.Alpha)
	}
	if p.PowerThreshold <= 0 || p.PowerThreshold > 1 {
		return fmt.Errorf("lrtest: power threshold %v outside (0,1]", p.PowerThreshold)
	}
	return nil
}

// Threshold returns the decision threshold τ: the (1−α) quantile of the
// reference individuals' LR scores. An adversary declaring membership when
// LR > τ then has false-positive rate at most α. The quantile is found with
// an O(n) quickselect rather than a full sort; the k-th order statistic is
// the same value either way.
func Threshold(refScores []float64, alpha float64) float64 {
	if len(refScores) == 0 {
		return math.Inf(1)
	}
	scratch := make([]float64, len(refScores))
	copy(scratch, refScores)
	return kthSmallest(scratch, thresholdIndex(len(scratch), alpha))
}

// thresholdIndex returns the index of the (1−α) quantile in an ascending
// sort of n scores: the position so that the fraction of reference scores
// strictly above it is ≤ α.
func thresholdIndex(n int, alpha float64) int {
	idx := int(math.Ceil(float64(n)*(1-alpha))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Power returns the fraction of case scores strictly above the threshold —
// the adversary's detection power at the threshold's false-positive rate.
func Power(caseScores []float64, threshold float64) float64 {
	if len(caseScores) == 0 {
		return 0
	}
	hits := 0
	for _, s := range caseScores {
		if s > threshold {
			hits++
		}
	}
	return float64(hits) / float64(len(caseScores))
}

// Result reports the outcome of a safe-subset search.
type Result struct {
	// Safe lists the selected column indices (ascending).
	Safe []int
	// Power is the detection power over the selected subset.
	Power float64
	// Iterations counts the candidate evaluations performed.
	Iterations int
}

// validateOrder checks that order is a permutation of [0, cols).
func validateOrder(order []int, cols int) error {
	if len(order) != cols {
		return fmt.Errorf("lrtest: order has %d entries for %d columns", len(order), cols)
	}
	seen := make([]bool, cols)
	for _, j := range order {
		if j < 0 || j >= cols || seen[j] {
			return fmt.Errorf("lrtest: order is not a permutation of the columns")
		}
		seen[j] = true
	}
	return nil
}

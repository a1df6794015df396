package core

import (
	"errors"
	"fmt"
	"slices"

	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
	"gendpr/internal/stats"
)

// PairStatsFunc returns the pooled correlation sufficient statistics for a
// SNP pair (original indices), aggregated over every individual the current
// evaluation considers: the case genomes of the participating GDOs plus the
// reference panel. The distributed pipeline backs it with leader-side
// aggregation of member contributions; the centralized baseline with direct
// computation over the pooled matrices.
type PairStatsFunc func(a, b int) (genome.PairStats, error)

// MAFPhase is Phase 1: it pools case counts with the reference panel and
// retains the SNPs whose global minor-allele frequency reaches the cutoff,
// returning L' as original SNP indices (Algorithm 1, lines 10–25).
func MAFPhase(caseCounts []int64, caseN int64, refCounts []int64, refN int64, cutoff float64) ([]int, error) {
	if len(caseCounts) != len(refCounts) {
		return nil, fmt.Errorf("core: %d case counts vs %d reference counts", len(caseCounts), len(refCounts))
	}
	total := caseN + refN
	retained := make([]int, 0, len(caseCounts))
	for l := range caseCounts {
		if stats.MAF(caseCounts[l]+refCounts[l], total) >= cutoff {
			retained = append(retained, l)
		}
	}
	return retained, nil
}

// AssociationPValues ranks every SNP by its case/reference association: the
// chi-square p-value used by the LD phase's getMostRanked (smaller p-value =
// higher rank). The paperForm flag selects the paper's simplified statistic.
func AssociationPValues(caseCounts []int64, caseN int64, refCounts []int64, refN int64, paperForm bool) ([]float64, error) {
	if len(caseCounts) != len(refCounts) {
		return nil, fmt.Errorf("core: %d case counts vs %d reference counts", len(caseCounts), len(refCounts))
	}
	pvals := make([]float64, len(caseCounts))
	for l := range caseCounts {
		tab, err := stats.NewSingleTable(caseN, caseCounts[l], refN, refCounts[l])
		if err != nil {
			return nil, fmt.Errorf("core: SNP %d: %w", l, err)
		}
		p, err := tab.AssocPValue(paperForm)
		if err != nil {
			return nil, fmt.Errorf("core: SNP %d: %w", l, err)
		}
		pvals[l] = p
	}
	return pvals, nil
}

// PairBatchFunc announces pairs the LD scan is about to examine, so a
// distributed pair-statistics provider can fetch them in one round trip per
// member instead of one request per pair. Implementations must tolerate
// pairs they have already seen. The slice is only valid for the duration of
// the call — the scan reuses the buffer between announcements.
type PairBatchFunc func(pairs [][2]int) error

// PairPredictor classifies a pair before any pooled statistics exist (the
// assessment driver: bandDecision on the reference panel). A settled pair is
// predicted dependent or not; an open one could go either way, and both
// branches are announced. A wrong guess costs a round trip, never a decision.
type PairPredictor func(a, b int) (dependent, open bool)

// LDPhase is Phase 2: a greedy scan over the retained SNPs in positional
// order. The current survivor is tested against the next SNP using pooled
// correlation statistics; when the pair's independence p-value falls below
// the cutoff the pair is dependent and only the higher-ranked SNP (smaller
// association p-value, ties to the lower index) survives. The result L”
// contains pairwise-independent SNPs in ascending order. Pairs are fetched
// one at a time as the scan reaches them; LDPhaseBatch is the same scan with
// its fetches batched, and is tested against this one.
func LDPhase(retained []int, pool PairStatsFunc, assocPValues []float64, cutoff float64) ([]int, error) {
	if len(retained) == 0 {
		return []int{}, nil
	}
	out := make([]int, 0, len(retained))
	current := retained[0]
	for _, next := range retained[1:] {
		dependent, err := pairDependent(pool, current, next, cutoff)
		if err != nil {
			return nil, err
		}
		if dependent {
			current = mostRanked(current, next, assocPValues)
		} else {
			out = append(out, current)
			current = next
		}
	}
	return append(out, current), nil
}

// LDPhaseBatch is LDPhase fetching along predicted states (survivor,
// position). Before the scan examines a pair from a state not yet announced,
// it expands the predictor's closure from there (ldStates.expand) and
// announces the new states' pairs through prefetch: with an exact, settled
// predictor, one announcement of exactly the pairs examined. announced is a
// closure the caller has had fetched (ldClosure), zero for none; the scan
// only reads it, so concurrent scans share one. Every decision is taken on
// pool's exact statistics: the result is LDPhase's whatever the predictor says.
func LDPhaseBatch(retained []int, pool PairStatsFunc, predict PairPredictor, prefetch PairBatchFunc, announced ldStates, assocPValues []float64, cutoff float64) ([]int, error) {
	if len(retained) == 0 {
		return []int{}, nil
	}
	var own ldStates
	var pairs [][2]int
	out := make([]int, 0, len(retained))
	current := retained[0]
	for idx := 1; idx < len(retained); idx++ {
		next := retained[idx]
		if !announced.has(idx, current) && !own.has(idx, current) {
			pairs = own.expand(announced, retained, predict, assocPValues, idx, current, pairs[:0])
			if err := prefetch(pairs); err != nil {
				return nil, fmt.Errorf("core: pair prefetch: %w", err)
			}
		}
		dependent, err := pairDependent(pool, current, next, cutoff)
		if err != nil {
			return nil, err
		}
		if dependent {
			current = mostRanked(current, next, assocPValues)
		} else {
			out = append(out, current)
			current = next
		}
	}
	return append(out, current), nil
}

// ldStates is a set of scan states: at[idx] lists the survivors at position
// idx, one in the common case — only open pairs make more — and n counts
// them. The zero value is empty.
type ldStates struct {
	at [][]int
	n  int
}

func (s ldStates) has(idx, survivor int) bool {
	return s.at != nil && slices.Contains(s.at[idx], survivor)
}

// ldClosure runs the scan on the predictor alone, down both branches of open
// pairs (within expand's bound), and returns the states and their pairs.
func ldClosure(retained []int, predict PairPredictor, assocPValues []float64) (ldStates, [][2]int) {
	states := ldStates{at: make([][]int, len(retained))}
	if len(retained) < 2 {
		return states, nil
	}
	pairs := states.expand(ldStates{}, retained, predict, assocPValues, 1, retained[0], make([][2]int, 0, len(retained)-1))
	return states, pairs
}

// expand adds to s the states reachable on the predictor from (current, idx)
// that neither s nor known holds, and appends their pairs to pairs. From each
// new state it follows the panel-size branch up to a held state, so s and
// known stay closed under it and hold the panel's single path from (current,
// idx). An open pair's other branch is queued, and followed only while s holds
// fewer than two states per position: whatever sizes members claim, s grows
// past that by single paths alone.
func (s *ldStates) expand(known ldStates, retained []int, predict PairPredictor, assocPValues []float64, idx, current int, pairs [][2]int) [][2]int {
	if s.at == nil {
		s.at = make([][]int, len(retained))
	}
	branches := [][2]int{{idx, current}}
	for len(branches) > 0 {
		b := branches[len(branches)-1]
		branches = branches[:len(branches)-1]
		for idx, cur := b[0], b[1]; idx < len(retained) && !known.has(idx, cur) && !s.has(idx, cur); idx++ {
			next := retained[idx]
			s.at[idx] = append(s.at[idx], cur)
			s.n++
			pairs = append(pairs, [2]int{cur, next})
			dependent, open := predict(cur, next)
			kept, other := next, mostRanked(cur, next, assocPValues)
			if dependent {
				kept, other = other, kept
			}
			if open && other != kept {
				branches = append(branches, [2]int{idx + 1, other})
			}
			cur = kept
		}
		if s.n >= 2*len(retained) {
			break
		}
	}
	return pairs
}

// bandDecision is the panel's LD decision on a pair at every pooled size from
// its own, s.N, to fullN: ldDependent's at s.N, settled if it holds at fullN
// too (N·r² grows with N), open if it flips. A pair ldDependent cannot decide
// is settled independent.
func bandDecision(s genome.PairStats, fullN int64, cutoff float64) (dependent, open bool) {
	dependent, err := ldDependent(s, cutoff)
	if err != nil {
		return false, false
	}
	r2, err := stats.R2FromStatsChecked(s)
	if err != nil {
		return dependent, false
	}
	p, err := stats.ChiSquareSurvival(float64(fullN)*r2, 1)
	return dependent, err == nil && (p < cutoff) != dependent
}

// pairDependent is the scan's decision on one pair: whether the independence
// p-value of its pooled statistics falls below the cutoff.
func pairDependent(pool PairStatsFunc, a, b int, cutoff float64) (bool, error) {
	ps, err := pool(a, b)
	if err != nil {
		return false, fmt.Errorf("core: pair stats (%d,%d): %w", a, b, err)
	}
	dependent, err := ldDependent(ps, cutoff)
	if err != nil {
		return false, fmt.Errorf("core: LD p-value (%d,%d): %w", a, b, err)
	}
	return dependent, nil
}

// ldDependent reports whether pair statistics reject independence at the
// cutoff. A monomorphic SNP carries no correlation signal; the pair counts as
// independent rather than failing the scan (MAF does not fold frequencies
// above 0.5, so all-ones SNPs can reach this phase legitimately).
func ldDependent(ps genome.PairStats, cutoff float64) (bool, error) {
	p, err := stats.LDPValue(ps)
	if errors.Is(err, stats.ErrDegeneratePair) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return p < cutoff, nil
}

// mostRanked picks the SNP with the smaller association p-value; ties go to
// the lower index so the choice is deterministic.
func mostRanked(a, b int, pvals []float64) int {
	switch {
	case pvals[a] < pvals[b]:
		return a
	case pvals[b] < pvals[a]:
		return b
	case a <= b:
		return a
	default:
		return b
	}
}

// LRPhaseBit is Phase 3: it runs the SecureGenome empirical safe-subset
// search over a case side and a reference LR-matrix whose columns correspond
// to the SNPs in cols (original indices), and maps the selected columns back
// to original SNP indices. The case side is caseParts stacked row-wise in
// argument order, every cell decoded through ratios (lrtest.SelectSafeParts):
// the combination's member patterns in canonical member order, or one
// merged matrix with its own ratios.
//
// order is the admission order (a permutation of the column indices); nil
// derives it from the given matrices. Collusion-tolerant evaluation passes
// the canonical full-federation order to every combination, so
// per-combination selections differ only where the combination's data
// genuinely fails the power test. sel, when non-nil, is a caller-owned
// lrtest.Selector, so a chain of combinations reuses the selection scratch
// buffers (and the power evaluator's per-individual score cache) instead of
// reallocating them per combination; nil evaluates through a fresh one. The
// results are the same either way.
func LRPhaseBit(cols []int, caseParts []*lrtest.BitMatrix, ratios lrtest.LogRatios, refLR *lrtest.BitMatrix, params lrtest.Params, order []int, sel *lrtest.Selector) ([]int, float64, error) {
	if len(ratios.Minor) != len(cols) || refLR.Cols() != len(cols) {
		return nil, 0, fmt.Errorf("core: log ratios and reference LR matrix have %d/%d columns, want %d",
			len(ratios.Minor), refLR.Cols(), len(cols))
	}
	if order == nil {
		var err error
		if order, err = lrtest.DiscriminabilityOrderParts(caseParts, ratios, refLR); err != nil {
			return nil, 0, fmt.Errorf("core: LR-test: %w", err)
		}
	}
	if sel == nil {
		sel = lrtest.NewSelector()
	}
	res, err := sel.SelectSafeParts(caseParts, ratios, refLR, params, order)
	if err != nil {
		return nil, 0, fmt.Errorf("core: LR-test: %w", err)
	}
	safe := make([]int, len(res.Safe))
	for i, j := range res.Safe {
		safe[i] = cols[j]
	}
	return safe, res.Power, nil
}

// IntersectSorted intersects ascending integer slices — the per-phase
// combination intersection of collusion-tolerant GenDPR (getIntersection in
// Section 6.1). With no input it returns nil; with one, a copy.
func IntersectSorted(lists ...[]int) []int {
	if len(lists) == 0 {
		return nil
	}
	out := make([]int, len(lists[0]))
	copy(out, lists[0])
	for _, l := range lists[1:] {
		out = intersectTwo(out, l)
		if len(out) == 0 {
			break
		}
	}
	return out
}

func intersectTwo(a, b []int) []int {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Frequencies converts counts over original SNP indices into frequency
// vectors restricted to the given columns (Phase 3's casesAlleleFreq[L”] and
// refAlleleFreq[L”] broadcast vectors).
func Frequencies(counts []int64, n int64, cols []int) []float64 {
	out := make([]float64, len(cols))
	if n == 0 {
		return out
	}
	for i, l := range cols {
		out[i] = float64(counts[l]) / float64(n)
	}
	return out
}

package core

import (
	"errors"
	"fmt"

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

// PairPredictor guesses whether the LD scan will find a pair dependent, from
// data the caller holds before any pooled statistics exist (the assessment
// driver uses the reference panel alone). A wrong guess costs a round trip,
// never a decision: LDPhaseBatch decides every pair on its exact pooled
// statistics.
type PairPredictor func(a, b int) bool

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

// LDPhaseBatch is LDPhase fetching along a predicted path. The scan's state
// is (survivor, position) and the position advances by one per step, so a
// path is one survivor per position: path[i] is the survivor whose pair with
// retained[i] has been announced, −1 for none. Before the scan examines a
// pair that is not on its path it predicts its own way forward from where it
// stands (extendLDPath) and announces exactly that stretch through prefetch;
// with an exact predictor that is one announcement of exactly the pairs the
// scan examines. announced is a path the caller has already had fetched
// (predictLDPath), nil for none; it is copied, so concurrent scans can share
// one. Every decision is taken on pool's exact statistics: the result is
// LDPhase's whatever the predictor says.
func LDPhaseBatch(retained []int, pool PairStatsFunc, predict PairPredictor, prefetch PairBatchFunc, announced []int, assocPValues []float64, cutoff float64) ([]int, error) {
	if len(retained) == 0 {
		return []int{}, nil
	}
	path := newLDPath(len(retained))
	copy(path, announced)
	var pairs [][2]int
	out := make([]int, 0, len(retained))
	current := retained[0]
	for idx := 1; idx < len(retained); idx++ {
		next := retained[idx]
		if path[idx] != current {
			pairs = extendLDPath(path, retained, predict, assocPValues, idx, current, pairs[:0])
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

// newLDPath returns a path over n retained SNPs with nothing announced.
func newLDPath(n int) []int {
	path := make([]int, n)
	for i := range path {
		path[i] = -1
	}
	return path
}

// predictLDPath runs the scan over retained on the predictor alone and
// returns its path together with the pairs it examined, in scan order.
func predictLDPath(retained []int, predict PairPredictor, assocPValues []float64) ([]int, [][2]int) {
	path := newLDPath(len(retained))
	if len(retained) < 2 {
		return path, nil
	}
	return path, extendLDPath(path, retained, predict, assocPValues, 1, retained[0], make([][2]int, 0, len(retained)-1))
}

// extendLDPath predicts the scan onward from (current, idx) until it meets
// the path — from where the same predictor would only retrace it — or the
// list ends; it records the stretch in path and appends its pairs to pairs.
func extendLDPath(path, retained []int, predict PairPredictor, assocPValues []float64, idx, current int, pairs [][2]int) [][2]int {
	for ; idx < len(retained) && path[idx] != current; idx++ {
		next := retained[idx]
		path[idx] = current
		pairs = append(pairs, [2]int{current, next})
		if predict(current, next) {
			current = mostRanked(current, next, assocPValues)
		} else {
			current = next
		}
	}
	return pairs
}

// pairDependent is the scan's decision on one pair: whether the independence
// p-value of its pooled statistics falls below the cutoff.
func pairDependent(pool PairStatsFunc, a, b int, cutoff float64) (bool, error) {
	ps, err := pool(a, b)
	if err != nil {
		//gendpr:allow(secretflow): the pair indices echo the scan's own query (protocol metadata), not cohort data
		return false, fmt.Errorf("core: pair stats (%d,%d): %w", a, b, err)
	}
	dependent, err := ldDependent(ps, cutoff)
	if err != nil {
		//gendpr:allow(secretflow): the pair indices echo the scan's own query (protocol metadata), not cohort data
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

// LRPhase is Phase 3: it runs the SecureGenome empirical safe-subset search
// over merged case and reference LR-matrices whose columns correspond to the
// SNPs in cols (original indices), and maps the selected columns back to
// original SNP indices.
func LRPhase(cols []int, caseLR, refLR *lrtest.Matrix, params lrtest.Params) ([]int, float64, error) {
	return LRPhaseOrdered(cols, caseLR, refLR, params, nil)
}

// LRPhaseOrdered is LRPhase with a caller-supplied admission order (a
// permutation of the column indices); nil derives the order from the given
// matrices. Collusion-tolerant evaluation passes the canonical full-
// federation order to every combination, so per-combination selections
// differ only where the combination's data genuinely fails the power test.
func LRPhaseOrdered(cols []int, caseLR, refLR *lrtest.Matrix, params lrtest.Params, order []int) ([]int, float64, error) {
	if caseLR.Cols() != len(cols) || refLR.Cols() != len(cols) {
		return nil, 0, fmt.Errorf("core: LR matrices have %d/%d columns, want %d",
			caseLR.Cols(), refLR.Cols(), len(cols))
	}
	if order == nil {
		order = lrtest.DiscriminabilityOrder(caseLR, refLR)
	}
	res, err := lrtest.SelectSafeWithOrder(caseLR, refLR, params, order)
	if err != nil {
		return nil, 0, fmt.Errorf("core: LR-test: %w", err)
	}
	safe := make([]int, len(res.Safe))
	for i, j := range res.Safe {
		safe[i] = cols[j]
	}
	return safe, res.Power, nil
}

// LRPhaseBit is LRPhase over bit-packed LR-matrices — the production Phase 3
// kernel. Results are bit-for-bit identical to the dense LRPhase.
func LRPhaseBit(cols []int, caseLR, refLR *lrtest.BitMatrix, params lrtest.Params) ([]int, float64, error) {
	return LRPhaseBitOrdered(cols, caseLR, refLR, params, nil)
}

// LRPhaseBitOrdered is LRPhaseOrdered over bit-packed LR-matrices.
func LRPhaseBitOrdered(cols []int, caseLR, refLR *lrtest.BitMatrix, params lrtest.Params, order []int) ([]int, float64, error) {
	if caseLR.Cols() != len(cols) || refLR.Cols() != len(cols) {
		return nil, 0, fmt.Errorf("core: LR matrices have %d/%d columns, want %d",
			caseLR.Cols(), refLR.Cols(), len(cols))
	}
	if order == nil {
		order = lrtest.DiscriminabilityOrderBit(caseLR, refLR)
	}
	res, err := lrtest.SelectSafeBitWithOrder(caseLR, refLR, params, order)
	if err != nil {
		return nil, 0, fmt.Errorf("core: LR-test: %w", err)
	}
	safe := make([]int, len(res.Safe))
	for i, j := range res.Safe {
		safe[i] = cols[j]
	}
	return safe, res.Power, nil
}

// LRPhaseBitSelector is LRPhaseBitOrdered evaluating through a caller-owned
// lrtest.Selector, so a chain of combinations reuses the selection scratch
// buffers (and the power evaluator's per-individual score cache) instead of
// reallocating them per combination. Results are identical to
// LRPhaseBitOrdered; a nil selector falls back to it.
func LRPhaseBitSelector(cols []int, caseLR, refLR *lrtest.BitMatrix, params lrtest.Params, order []int, sel *lrtest.Selector) ([]int, float64, error) {
	if sel == nil {
		return LRPhaseBitOrdered(cols, caseLR, refLR, params, order)
	}
	if caseLR.Cols() != len(cols) || refLR.Cols() != len(cols) {
		return nil, 0, fmt.Errorf("core: LR matrices have %d/%d columns, want %d",
			caseLR.Cols(), refLR.Cols(), len(cols))
	}
	if order == nil {
		order = lrtest.DiscriminabilityOrderBit(caseLR, refLR)
	}
	res, err := sel.SelectSafeBitWithOrder(caseLR, refLR, params, order)
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

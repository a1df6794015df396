package lrtest

import (
	"fmt"
	"math"
	"sort"

	"gendpr/internal/oblivious"
)

// This file is the greedy admission search over bit-packed LR-matrices. It
// finds each candidate's (1−α)-quantile threshold in one of two ways. Direct
// mode (selectSafeBitBand) fuses the threshold into the reference-side
// accumulate pass: BitMatrix.addColumnKth narrows the k-th order statistic to
// a band of scores around the previous threshold and runs bandKth
// (quickselect.go) over that band only, so quickselect is on the protocol
// path, over a bucket of a few percent of the rows. Oblivious mode
// (powerEval) may not compare score values to pick what it touches and
// streams every candidate score vector through a fixed-shape top-k filter
// instead. The row loops of direct mode — the band pass, the case count and
// the discriminability means — run on AVX-512 kernels where the CPU has
// them (kernels_amd64.go), with bit-identical results; the Go loops are the
// fallback and the tests' oracle (kernels_test.go).

// powerEval computes oblivious-mode detection powers across the greedy
// admission loop, reusing one streaming top-k filter: the seed implementation
// allocated and fully sorted a fresh copy of the reference scores for every
// candidate. Direct mode never routes through it.
type powerEval struct {
	topk *oblivious.TopK // streaming quantile filter
	kth  int             // the kth largest reference score is τ
}

// newPowerEval sizes the evaluator for reference score vectors of length n.
func newPowerEval(params Params, n int) *powerEval {
	e := new(powerEval)
	if n > 0 {
		// The (1−α) quantile at ascending index idx is the (n−idx)-th
		// largest score.
		e.kth = n - thresholdIndex(n, params.Alpha)
		e.topk = oblivious.NewTopK(e.kth)
	}
	return e
}

// power returns Power(case, Threshold(ref, α)) bit for bit: the streaming
// top-k filter returns the exact k-th order statistic Threshold's
// quickselect finds.
func (e *powerEval) power(caseScores, refScores []float64) float64 {
	if len(caseScores) == 0 {
		return 0
	}
	tau := math.Inf(1)
	if len(refScores) > 0 {
		e.topk.Reset()
		e.topk.Push(refScores)
		tau = e.topk.KthLargest(e.kth)
	}
	return float64(oblivious.CountGreater(caseScores, tau)) / float64(len(caseScores))
}

// Selector runs the greedy admission search while reusing its scratch
// buffers — score vectors, candidate vectors and the threshold machinery —
// across calls. The collusion driver evaluates hundreds of combinations back
// to back over same-shaped matrices; per-call allocation of the row-sized
// slices was a measurable slice of the Phase 3 profile. A Selector is not
// safe for concurrent use; the sharded driver keeps one per evaluation
// chain. Results are bit-identical to the allocate-per-call path: buffers
// are (re)sized and the accumulated score prefixes zeroed on entry, and the
// threshold is the exact k-th order statistic either way.
type Selector struct {
	caseScores, refScores []float64
	candCase, candRef     []float64
	band                  []float64  // direct mode: addColumnKth's compaction scratch
	eval                  *powerEval // oblivious mode's evaluator, for evalRows and evalAlpha
	evalRows              int
	evalAlpha             float64
}

// NewSelector returns an empty Selector; buffers grow on first use.
func NewSelector() *Selector { return new(Selector) }

// sized returns buf resized to n, reusing capacity.
func sized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// powerEval returns the cached oblivious-mode evaluator, rebuilding it when
// the reference height or α — the two things its quantile rank depends on —
// changed since the last call.
func (s *Selector) powerEval(params Params, refRows int) *powerEval {
	if s.eval == nil || s.evalRows != refRows || math.Float64bits(s.evalAlpha) != math.Float64bits(params.Alpha) {
		s.eval = newPowerEval(params, refRows)
		s.evalRows = refRows
		s.evalAlpha = params.Alpha
	}
	return s.eval
}

// SelectSafeBitWithOrder performs the empirical safe-subset search of
// SecureGenome: columns are considered in the given order (Phase 3 passes
// DiscriminabilityOrderBit's, least identifying first) and admitted
// greedily; a candidate whose admission pushes detection power to
// PowerThreshold or above is rejected. Collusion-tolerant GenDPR evaluates
// every honest-subset combination with the canonical order derived from the
// full federation, so the per-combination selections differ only where a
// combination's data genuinely fails the power test. The search is
// deterministic, so a centralized evaluation and a distributed one over the
// merged federation matrices return the same subset.
func (s *Selector) SelectSafeBitWithOrder(caseLR, refLR *BitMatrix, params Params, order []int) (Result, error) {
	if err := params.Validate(); err != nil {
		return Result{}, err
	}
	if caseLR.Cols() != refLR.Cols() {
		return Result{}, fmt.Errorf("%w: case %d vs reference %d columns", ErrShapeMismatch, caseLR.Cols(), refLR.Cols())
	}
	cols := caseLR.Cols()
	if cols == 0 {
		return Result{Safe: []int{}}, nil
	}
	if err := validateOrder(order, cols); err != nil {
		return Result{}, err
	}
	if !params.Oblivious {
		return s.selectSafeBitBand(caseLR, refLR, params, order), nil
	}

	caseScores := sized(s.caseScores, caseLR.Rows())
	refScores := sized(s.refScores, refLR.Rows())
	candCase := sized(s.candCase, caseLR.Rows())
	candRef := sized(s.candRef, refLR.Rows())
	// The accumulated bases start at zero; the candidate buffers are fully
	// overwritten by addColumn before being read.
	clear(caseScores)
	clear(refScores)
	eval := s.powerEval(params, refLR.Rows())

	res := Result{Safe: make([]int, 0, cols)}
	for _, j := range order {
		caseLR.addColumn(candCase, caseScores, j)
		refLR.addColumn(candRef, refScores, j)
		power := eval.power(candCase, candRef)
		res.Iterations++
		if power < params.PowerThreshold {
			caseScores, candCase = candCase, caseScores
			refScores, candRef = candRef, refScores
			res.Safe = append(res.Safe, j)
			res.Power = power
		}
	}
	s.caseScores, s.candCase = caseScores, candCase
	s.refScores, s.candRef = refScores, candRef
	sort.Ints(res.Safe)
	return res, nil
}

// selectSafeBitBand is the direct-mode admission loop. Both sides run one
// dense, branchless accumulate pass per candidate: the reference side's
// addColumnKth also yields the candidate's exact (1−α)-quantile, located from
// the previous threshold instead of by selection over all rows (see
// addColumnKth), and the case side's addColumnCount counts the scores above
// it. Admitting a candidate is a buffer swap.
//
// tau is the k-th smallest of the accumulated reference scores: 0 while they
// are all zero, the candidate's threshold once a candidate is admitted, and
// unchanged by a rejection, which leaves the accumulated scores as they were.
//
// The result is bit-identical to thresholding a sorted copy: every row's
// score is produced by the same sequence of float additions (base plus one
// representative per admitted column, in admission order), and the k-th
// order statistic of a multiset is a single well-defined value no matter how
// it is found. The oblivious path keeps the streaming top-k filter — the
// band is chosen by comparing score values, which oblivious mode forbids.
func (s *Selector) selectSafeBitBand(caseLR, refLR *BitMatrix, params Params, order []int) Result {
	caseScores := sized(s.caseScores, caseLR.Rows())
	candCase := sized(s.candCase, caseLR.Rows())
	clear(caseScores)
	refN := refLR.Rows()
	refScores := sized(s.refScores, refN)
	candRef := sized(s.candRef, refN)
	s.band = sized(s.band, refN)
	clear(refScores)
	k := 0
	if refN > 0 {
		k = thresholdIndex(refN, params.Alpha)
	}
	tau := 0.0

	res := Result{Safe: make([]int, 0, caseLR.Cols())}
	for _, j := range order {
		candTau := math.Inf(1)
		if refN > 0 {
			candTau = refLR.addColumnKth(candRef, refScores, j, k, tau, s.band)
		}
		hits := caseLR.addColumnCount(candCase, caseScores, j, candTau)
		var power float64
		if len(candCase) > 0 {
			power = float64(hits) / float64(len(candCase))
		}
		res.Iterations++
		if power < params.PowerThreshold {
			caseScores, candCase = candCase, caseScores
			refScores, candRef = candRef, refScores
			tau = candTau
			res.Safe = append(res.Safe, j)
			res.Power = power
		}
	}
	s.caseScores, s.candCase = caseScores, candCase
	s.refScores, s.candRef = refScores, candRef
	sort.Ints(res.Safe)
	return res
}

// DiscriminabilityOrderBit ranks columns by |mean case contribution − mean
// reference contribution| ascending, tie-broken by index, so the least
// identifying SNPs are considered first. Each mean sums its column's rows in
// ascending order.
func DiscriminabilityOrderBit(caseLR, refLR *BitMatrix) []int {
	cols := caseLR.Cols()
	type ranked struct {
		j int
		d float64
	}
	rs := make([]ranked, cols)
	caseMeans, refMeans := columnMeansBit(caseLR), columnMeansBit(refLR)
	for j := 0; j < cols; j++ {
		rs[j] = ranked{j: j, d: math.Abs(caseMeans[j] - refMeans[j])}
	}
	sort.Slice(rs, func(a, b int) bool {
		// Exact inequality keeps the comparator a strict weak order; a
		// tolerance here would make "equal" intransitive and the ordering
		// (hence the admission order every combination shares) unstable.
		//gendpr:allow(floateq): sort tie-break needs exact comparison for a consistent total order
		if rs[a].d != rs[b].d {
			return rs[a].d < rs[b].d
		}
		return rs[a].j < rs[b].j
	})
	order := make([]int, cols)
	for i, r := range rs {
		order[i] = r.j
	}
	return order
}

// columnMeansBit returns every column's mean, each summed over the rows in
// ascending order. The vector kernel sums eight columns per lane group over
// the whole words; each column's Go loop continues from there.
func columnMeansBit(m *BitMatrix) []float64 {
	means := make([]float64, m.cols)
	if m.rows == 0 {
		return means
	}
	done := columnSumsWords(m, means)
	for j := range means {
		v := [2]float64{m.zero[j], m.one[j]}
		sum := means[j]
		words := m.colWords(j)
		for wi := done; wi < len(words); wi++ {
			word := words[wi]
			for n := min(64, m.rows-wi<<6); n > 0; n-- {
				sum += v[word&1]
				word >>= 1
			}
		}
		means[j] = sum / float64(m.rows)
	}
	return means
}

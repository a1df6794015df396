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
	return s.selectSafe([]*BitMatrix{caseLR}, refLR, params, order)
}

// SelectSafeParts is SelectSafeBitWithOrder with the case side given as
// genotype patterns stacked row-wise in argument order, every cell decoded
// through ratios: bit for bit the selection of their concatenation reskinned
// with ratios, without building it. Phase 3 passes a combination's member
// patterns in canonical member order.
func (s *Selector) SelectSafeParts(caseParts []*BitMatrix, ratios LogRatios, refLR *BitMatrix, params Params, order []int) (Result, error) {
	cases, err := skinParts(caseParts, ratios)
	if err != nil {
		return Result{}, err
	}
	return s.selectSafe(cases, refLR, params, order)
}

// skinParts returns views of parts whose cell bits decode through ratios:
// what Reskin returns, sharing the representatives instead of copying them,
// so the views are valid while ratios is unchanged.
func skinParts(parts []*BitMatrix, ratios LogRatios) ([]*BitMatrix, error) {
	cols := len(ratios.Minor)
	if len(ratios.Major) != cols {
		return nil, fmt.Errorf("%w: %d minor vs %d major log ratios", ErrShapeMismatch, cols, len(ratios.Major))
	}
	views := make([]*BitMatrix, len(parts))
	for i, p := range parts {
		if p.cols != cols {
			return nil, fmt.Errorf("%w: case part %d has %d columns, log ratios %d", ErrShapeMismatch, i, p.cols, cols)
		}
		views[i] = p.withReps(ratios.Major, ratios.Minor)
	}
	return views, nil
}

// The case side of a selection is a list of matrices stacked row-wise: one
// for a merged matrix, one per member pattern in Phase 3. Part p's rows are
// the case score buffers' [off, off+p.rows), where off is the rows of the
// parts before it; each part is scored into its own slice by the same
// per-row additions a single matrix gets, and the hits of the parts add up.

// caseRows returns the rows of the parts stacked.
func caseRows(cases []*BitMatrix) int {
	n := 0
	for _, p := range cases {
		n += p.rows
	}
	return n
}

// addColumnParts is addColumn over the stacked parts.
func addColumnParts(cases []*BitMatrix, dst, base []float64, j int) {
	off := 0
	for _, p := range cases {
		p.addColumn(dst[off:], base[off:], j)
		off += p.rows
	}
}

// addColumnCountParts is addColumnCount over the stacked parts.
func addColumnCountParts(cases []*BitMatrix, dst, base []float64, j int, tau float64) int {
	hits, off := 0, 0
	for _, p := range cases {
		hits += p.addColumnCount(dst[off:], base[off:], j, tau)
		off += p.rows
	}
	return hits
}

// selectSafe is the admission search over the stacked case parts.
func (s *Selector) selectSafe(cases []*BitMatrix, refLR *BitMatrix, params Params, order []int) (Result, error) {
	if err := params.Validate(); err != nil {
		return Result{}, err
	}
	cols := refLR.Cols()
	for _, p := range cases {
		if p.Cols() != cols {
			return Result{}, fmt.Errorf("%w: case %d vs reference %d columns", ErrShapeMismatch, p.Cols(), cols)
		}
	}
	if cols == 0 {
		return Result{Safe: []int{}}, nil
	}
	if err := validateOrder(order, cols); err != nil {
		return Result{}, err
	}
	if !params.Oblivious {
		return s.selectSafeBitBand(cases, refLR, params, order), nil
	}

	caseN := caseRows(cases)
	caseScores := sized(s.caseScores, caseN)
	refScores := sized(s.refScores, refLR.Rows())
	candCase := sized(s.candCase, caseN)
	candRef := sized(s.candRef, refLR.Rows())
	// The accumulated bases start at zero; the candidate buffers are fully
	// overwritten by addColumn before being read.
	clear(caseScores)
	clear(refScores)
	eval := s.powerEval(params, refLR.Rows())

	res := Result{Safe: make([]int, 0, cols)}
	for _, j := range order {
		addColumnParts(cases, candCase, caseScores, j)
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
func (s *Selector) selectSafeBitBand(cases []*BitMatrix, refLR *BitMatrix, params Params, order []int) Result {
	caseN := caseRows(cases)
	caseScores := sized(s.caseScores, caseN)
	candCase := sized(s.candCase, caseN)
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

	res := Result{Safe: make([]int, 0, refLR.Cols())}
	for _, j := range order {
		candTau := math.Inf(1)
		if refN > 0 {
			candTau = refLR.addColumnKth(candRef, refScores, j, k, tau, s.band)
		}
		hits := addColumnCountParts(cases, candCase, caseScores, j, candTau)
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
	return discriminabilityOrder([]*BitMatrix{caseLR}, refLR, caseLR.Cols())
}

// DiscriminabilityOrderParts is DiscriminabilityOrderBit with the case side
// given as SelectSafeParts takes it: the order of the parts' concatenation
// reskinned with ratios, bit for bit. A case mean sums its column over the
// parts in argument order, rows ascending within each, so the parts must come
// in the order the concatenation would stack them.
func DiscriminabilityOrderParts(caseParts []*BitMatrix, ratios LogRatios, refLR *BitMatrix) ([]int, error) {
	cases, err := skinParts(caseParts, ratios)
	if err != nil {
		return nil, err
	}
	if refLR.Cols() != len(ratios.Minor) {
		return nil, fmt.Errorf("%w: reference %d columns, log ratios %d", ErrShapeMismatch, refLR.Cols(), len(ratios.Minor))
	}
	return discriminabilityOrder(cases, refLR, len(ratios.Minor)), nil
}

func discriminabilityOrder(cases []*BitMatrix, refLR *BitMatrix, cols int) []int {
	type ranked struct {
		j int
		d float64
	}
	rs := make([]ranked, cols)
	caseMeans, refMeans := columnMeans(cases, cols), columnMeans([]*BitMatrix{refLR}, cols)
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

// columnMeans returns every column's mean over the parts stacked row-wise.
// One running sum per column crosses the parts: within a part the vector
// kernel adds the whole words, eight columns per lane group, onto the sums it
// is handed, and the Go loop adds the partial last word; so each sum takes
// the rows in ascending order of the stack, the additions a single matrix of
// the stacked rows gets.
func columnMeans(parts []*BitMatrix, cols int) []float64 {
	sums := make([]float64, cols)
	rows := 0
	for _, m := range parts {
		if m.rows == 0 {
			continue
		}
		rows += m.rows
		done := columnSumsWords(m, sums)
		for j := range sums {
			v := [2]float64{m.zero[j], m.one[j]}
			sum := sums[j]
			words := m.column(j)
			for wi := done; wi < len(words); wi++ {
				word := words[wi]
				for n := min(64, m.rows-wi<<6); n > 0; n-- {
					sum += v[word&1]
					word >>= 1
				}
			}
			sums[j] = sum
		}
	}
	if rows == 0 {
		return sums
	}
	for j := range sums {
		sums[j] /= float64(rows)
	}
	return sums
}

// Package oblivious provides data-oblivious building blocks for enclave
// code. SGX enclaves leak memory access patterns to the untrusted host; the
// paper lists an oblivious GenDPR as future work and cites bitonic/ORAM
// style defenses. The primitives here execute a control flow and memory
// access sequence that depends only on input *sizes*, never on input
// *values*: selections go through arithmetic masking and sorting through a
// bitonic network. They back the oblivious LR-test mode in internal/lrtest.
//
// Caveat: pure Go cannot guarantee constant-time execution of every
// instruction the compiler emits; like published research prototypes, the
// package guarantees the algorithmic access pattern is data-independent.
package oblivious

import "math"

// Select64 returns a when choose is 1 and b when choose is 0, without
// branching on the secret choose bit.
func Select64(choose uint64, a, b uint64) uint64 {
	mask := -(choose & 1)
	return (a & mask) | (b &^ mask)
}

// SelectFloat returns a when choose is 1 and b when choose is 0 via bitwise
// masking of the IEEE-754 representations.
func SelectFloat(choose uint64, a, b float64) float64 {
	return math.Float64frombits(Select64(choose, math.Float64bits(a), math.Float64bits(b)))
}

// LessBit returns 1 when a < b and 0 otherwise as a data-usable bit.
// Total-order semantics follow IEEE-754 comparison; NaNs compare false.
func LessBit(a, b float64) uint64 {
	if a < b { // the comparison result becomes data, not a branch target
		return 1
	}
	return 0
}

// MinMax obliviously orders two values: it always performs the same loads,
// stores and arithmetic regardless of the operands.
func MinMax(a, b float64) (lo, hi float64) {
	swap := LessBit(b, a)
	lo = SelectFloat(swap, b, a)
	hi = SelectFloat(swap, a, b)
	return lo, hi
}

// BitonicSort sorts the slice ascending with a bitonic sorting network. The
// sequence of compare-exchange positions depends only on len(v): an observer
// of the memory trace learns nothing about the values. The slice is padded
// virtually to the next power of two using +Inf sentinels.
func BitonicSort(v []float64) {
	n := len(v)
	if n < 2 {
		return
	}
	size := 1
	for size < n {
		size <<= 1
	}
	padded := make([]float64, size)
	copy(padded, v)
	for i := n; i < size; i++ {
		padded[i] = math.Inf(1)
	}
	bitonicSortPow2(padded, true)
	copy(v, padded[:n])
}

// bitonicSortPow2 sorts a power-of-two-length slice with a bitonic network,
// ascending when up is true. The direction is a public parameter: branching
// on it reveals nothing about the data.
func bitonicSortPow2(v []float64, up bool) {
	n := len(v)
	if n < 2 {
		return
	}
	bitonicSortPow2(v[:n/2], true)
	bitonicSortPow2(v[n/2:], false)
	bitonicMergePow2(v, up)
}

// bitonicMergePow2 sorts a bitonic power-of-two-length sequence (any cyclic
// rotation of an increase-then-decrease run) into the given direction with
// the classic half-cleaner network.
func bitonicMergePow2(v []float64, up bool) {
	n := len(v)
	if n < 2 {
		return
	}
	half := n / 2
	for i := 0; i < half; i++ {
		lo, hi := MinMax(v[i], v[i+half])
		if up {
			v[i], v[i+half] = lo, hi
		} else {
			v[i], v[i+half] = hi, lo
		}
	}
	bitonicMergePow2(v[:half], up)
	bitonicMergePow2(v[half:], up)
}

// CountGreater returns how many values exceed the threshold using a
// branchless accumulation: every element is loaded and combined identically.
func CountGreater(scores []float64, threshold float64) int {
	var count uint64
	for _, s := range scores {
		count += LessBit(threshold, s)
	}
	return int(count)
}

// TopK is a streaming data-oblivious top-k filter. Instead of bitonic-sorting
// a full score vector per quantile query — O(n log² n) compare-exchanges — it
// keeps a power-of-two buffer of the k largest values seen and folds each
// incoming block in with one block sort plus one bitonic merge, O(n log² k)
// overall. The access pattern depends only on k and the pushed lengths.
//
// The invariant after every Push is that buf holds, in ascending order, the
// size largest values pushed so far (padded with −Inf while fewer than size
// values have been pushed). Folding works because the elementwise maximum of
// an ascending and a descending sequence contains exactly the top-size of
// their union and is itself bitonic, so one half-cleaner merge restores the
// ascending invariant.
type TopK struct {
	k    int
	size int       // next power of two >= k
	buf  []float64 // ascending; the size largest values so far
	blk  []float64 // staging for one incoming block
}

// NewTopK returns a filter that tracks the k largest pushed values (k >= 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	size := 1
	for size < k {
		size <<= 1
	}
	t := &TopK{k: k, size: size, buf: make([]float64, size), blk: make([]float64, size)}
	t.Reset()
	return t
}

// Reset forgets all pushed values so the filter can be reused without
// reallocating its buffers.
func (t *TopK) Reset() {
	for i := range t.buf {
		t.buf[i] = math.Inf(-1)
	}
}

// Push folds values into the filter. The compare-exchange sequence depends
// only on len(vals) and k.
func (t *TopK) Push(vals []float64) {
	for off := 0; off < len(vals); off += t.size {
		end := off + t.size
		if end > len(vals) {
			end = len(vals)
		}
		n := copy(t.blk, vals[off:end])
		for i := n; i < t.size; i++ {
			t.blk[i] = math.Inf(-1)
		}
		bitonicSortPow2(t.blk, false)
		for i := range t.buf {
			// max(buf[i], blk[i]): ascending max descending keeps the
			// top-size of the union as a bitonic sequence.
			t.buf[i] = SelectFloat(LessBit(t.buf[i], t.blk[i]), t.blk[i], t.buf[i])
		}
		bitonicMergePow2(t.buf, true)
	}
}

// KthLargest returns the j-th largest value pushed so far (1-indexed,
// 1 <= j <= k), or −Inf when fewer than j values have been pushed.
func (t *TopK) KthLargest(j int) float64 {
	if j < 1 || j > t.k {
		panic("oblivious: KthLargest index out of range")
	}
	return t.buf[t.size-j]
}

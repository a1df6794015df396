package lrtest

import "math"

// kthSmallest returns the k-th smallest element (0-indexed) of a, partially
// reordering a in place. It is the O(n) replacement for the full sort the
// threshold computation used: the k-th order statistic of a multiset is a
// single well-defined value, so the result is identical to sorted[k].
// Callers guarantee a contains no NaNs (LR scores are finite by the
// frequency clamp in NewLogRatios).
func kthSmallest(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for hi-lo > insertionCutoff {
		p := partition(a, lo, hi)
		switch {
		case k <= p:
			hi = p
		default:
			lo = p + 1
		}
	}
	insertionSort(a, lo, hi)
	return a[k]
}

// bandKth is kthSmallest for a slice whose elements all lie in [lo, hi], as
// addColumnKth's band does. A histogram of int((s−lo)·scale) over 64
// buckets — monotone in s, so every element of a lower bucket is smaller
// than every element of a higher one — names the bucket holding rank k; that
// bucket is compacted to the front of a without a data-dependent branch, and
// quickselect runs over it alone. Short slices, an empty range and a range
// too narrow to scale (a subnormal hi−lo overflows 64/(hi−lo)) go straight
// to kthSmallest. The result is the same k-th order statistic either way.
func bandKth(a []float64, k int, lo, hi float64) float64 {
	const buckets = 64
	width := hi - lo
	scale := buckets / width
	if len(a) < 2*buckets || !(width > 0) || math.IsInf(width, 0) || math.IsInf(scale, 0) {
		return kthSmallest(a, k)
	}
	// lo ≤ s ≤ hi gives 0 ≤ s−lo ≤ width, so the scaled value is finite and
	// at most 64 plus rounding: the conversion is safe and min clamps it.
	bucket := func(s float64) int { return min(int((s-lo)*scale), buckets-1) }
	var hist [buckets]int
	for _, s := range a {
		hist[bucket(s)]++
	}
	b := 0
	for b < buckets-1 && k >= hist[b] {
		k -= hist[b]
		b++
	}
	n := 0
	for _, s := range a {
		a[n] = s
		in := 0
		if bucket(s) == b {
			in = 1
		}
		n += in
	}
	return kthSmallest(a[:n], k)
}

// insertionCutoff is the subrange length below which quickselect finishes
// with an insertion sort instead of partitioning further.
const insertionCutoff = 12

// partition performs a Hoare partition of a[lo:hi+1] around a median-of-3
// pivot and returns p such that a[lo..p] <= pivot <= a[p+1..hi], with both
// sides non-empty.
func partition(a []float64, lo, hi int) int {
	mid := int(uint(lo+hi) >> 1)
	// Median-of-3: order a[lo], a[mid], a[hi] so a[mid] is the median.
	if a[mid] < a[lo] {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[hi] < a[mid] {
		a[hi], a[mid] = a[mid], a[hi]
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
	}
	pivot := a[mid]
	i, j := lo-1, hi+1
	for {
		for {
			i++
			if !(a[i] < pivot) {
				break
			}
		}
		for {
			j--
			if !(pivot < a[j]) {
				break
			}
		}
		if i >= j {
			return j
		}
		a[i], a[j] = a[j], a[i]
	}
}

// insertionSort sorts a[lo:hi+1] ascending in place.
func insertionSort(a []float64, lo, hi int) {
	for i := lo + 1; i <= hi; i++ {
		v := a[i]
		j := i - 1
		for j >= lo && v < a[j] {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

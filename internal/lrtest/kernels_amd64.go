package lrtest

// The AVX-512F kernels of kernels_amd64.s run the row loops of direct-mode
// selection eight rows (or eight columns) to a vector. Each wrapper below
// hands the kernel a column's whole 64-row words and reports how many it
// did; the Go loop in bitmatrix.go or selectbit.go continues from the next
// word, so the kernel and the Go loop are one pass, and with useAVX512 false
// the Go loop runs from word 0. DESIGN.md §5b explains why the lanes give
// bit-identical results.

// hasAVX512 reports whether the CPU and the OS support the kernels:
// AVX512F and POPCNT, and the OS saving the opmask and all 512-bit
// registers (XCR0 bits 1, 2, 5, 6, 7).
var hasAVX512 = detectAVX512()

// useAVX512 routes the row loops through the vector kernels. It is set once
// from hasAVX512; tests clear it to price and check the Go loops.
var useAVX512 = hasAVX512

func detectAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, popcnt = 1 << 27, 1 << 23
	if ecx1&osxsave == 0 || ecx1&popcnt == 0 {
		return false
	}
	const xcr0 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if eax, _ := xgetbv(); eax&xcr0 != xcr0 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	return ebx7&avx512f != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// addCountAVX512 is addColumnCount's pass over n whole words: rows 0..64n−1.
//
//go:noescape
func addCountAVX512(dst, base *float64, words *uint64, n int, zero, one, tau float64) (hits int)

// addBandAVX512 is addColumnKth's band pass over n whole words. band needs
// room for 64n scores: the in-band scores are compressed straight to
// band[nb:], so only the kept lanes are written.
//
//go:noescape
func addBandAVX512(dst, base, band *float64, words *uint64, n int, zero, one, lo, hi float64) (below, nb int)

// columnSumsAVX512 adds columns ja..ja+7 and jb..jb+7 over their first n
// words onto sums, one lane per column, rows in ascending order. Lane l of
// group A reads column ja+l's words from bits[offs[l]:] and of group B
// column jb+l's from bits[offs[8+l]:], so the columns need not be adjacent.
// The sums it is handed are where each lane starts, so a sum runs on across
// the parts of a stacked case side. Bit l of keep (A) and of keep>>8 (B)
// stores lane l's sum; a cleared bit leaves sums as it was.
//
//go:noescape
func columnSumsAVX512(sums, zero, one *float64, bits *uint64, offs *int, n, ja, jb, keep int)

// addCountWords runs the vector part of addColumnCount: dst and base hold
// the column's rows, words its bit span.
func addCountWords(dst, base []float64, words []uint64, zero, one, tau float64) (hits, done int) {
	n := len(dst) >> 6
	if !useAVX512 || n == 0 {
		return 0, 0
	}
	return addCountAVX512(&dst[0], &base[0], &words[0], n, zero, one, tau), n
}

// addBandWords runs the vector part of addColumnKth's band pass.
func addBandWords(dst, base, band []float64, words []uint64, zero, one, lo, hi float64) (below, nb, done int) {
	n := len(dst) >> 6
	if !useAVX512 || n == 0 {
		return 0, 0, 0
	}
	below, nb = addBandAVX512(&dst[0], &base[0], &band[0], &words[0], n, zero, one, lo, hi)
	return below, nb, n
}

// columnSumsWords runs the vector part of columnMeans: it adds onto sums[j]
// column j's cells over the matrix's whole words, for every column, and
// returns that word count. It needs at least 8 columns; a trailing partial
// group is handled by an overlapping last group, which stores only the lanes
// no earlier call has: a lane stored twice would add the rows twice.
func columnSumsWords(m *BitMatrix, sums []float64) (done int) {
	n := m.rows >> 6
	if !useAVX512 || n == 0 || m.cols < 8 {
		return 0
	}
	last := m.cols - 8
	var offs [16]int // the two groups' column starts in m.bits
	for j := 0; j < m.cols; j += 16 {
		// Columns below j are summed by an earlier call. Within one call
		// the two groups may share columns: both start from the same sums
		// and store the same values.
		ja, jb := min(j, last), min(j+8, last)
		for l := 0; l < 8; l++ {
			offs[l], offs[8+l] = m.start(ja+l), m.start(jb+l)
		}
		keep := (0xff<<max(0, j-ja))&0xff | (0xff<<max(0, j-jb))&0xff<<8
		columnSumsAVX512(&sums[0], &m.zero[0], &m.one[0], &m.bits[0], &offs[0], n, ja, jb, keep)
	}
	return n
}

//go:build !amd64

package lrtest

// Off amd64 there are no vector kernels: the Go loops run every row.

const hasAVX512 = false

var useAVX512 = false

func addCountWords(dst, base []float64, words []uint64, zero, one, tau float64) (hits, done int) {
	return 0, 0
}

func addBandWords(dst, base, band []float64, words []uint64, zero, one, lo, hi float64) (below, nb, done int) {
	return 0, 0, 0
}

func columnSumsWords(m *BitMatrix, sums []float64) (done int) { return 0 }

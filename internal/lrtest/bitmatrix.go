package lrtest

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrNotCompactable is returned when a column holds more than two distinct
// values and so cannot be stored one bit per cell.
var ErrNotCompactable = errors.New("lrtest: matrix column has more than two distinct values")

// BitMatrix is the LR-matrix, stored by exploiting the structure of
// Equation 1: every column holds at most two distinct values (the minor- and
// major-allele contributions), so the matrix stores as one bit per cell plus
// two float64 representatives per column, roughly 60x smaller than a float64
// per cell for the paper's cohort sizes.
//
// Bits are stored column-major (column j occupies the wpc words
// bits[start(j):start(j)+wpc], row i at bit i of that span) so the kernel's
// hot loops — the greedy admission scan, discriminability means
// — are stride-1 passes over a column's words. A matrix owns its columns
// back to back (start(j) = j·wpc), or is a view over scattered columns of a
// wider buffer it shares, one word offset per column (BitFromColumnWords).
// Unused tail bits of each column's last word are always zero; every
// constructor maintains this invariant.
//
// Cell (i,j) decodes to one[j] when its bit is set and zero[j] otherwise.
// All per-cell arithmetic iterates rows in ascending order and decodes cells
// branchlessly through a two-element lookup, so every score is the same
// sequence of float additions as summing a float64-per-cell matrix row by
// row in column order, and bit-for-bit identical to it.
type BitMatrix struct {
	rows, cols int
	wpc        int // column stride in words: (rows+63)/64
	// zero/one are per-column decode values derived from the candidate
	// release's frequencies: cohort-level, aggregate-class secrets.
	//gendpr:secret(aggregate)
	zero []float64 // per-column value decoded for a clear bit
	//gendpr:secret(aggregate)
	one []float64 // per-column value decoded for a set bit
	// bits carries one cell per individual per SNP: per-individual secret.
	//gendpr:secret(individual)
	bits []uint64 // column-major cell bits: cols*wpc words, or a view's shared buffer
	off  []int    // a view's per-column word offsets into bits; nil when the columns are back to back
}

// NewBitMatrix allocates a rows-by-cols bit-packed LR-matrix whose cells all
// decode to zero.
func NewBitMatrix(rows, cols int) *BitMatrix {
	if rows < 0 || cols < 0 {
		return &BitMatrix{}
	}
	wpc := (rows + 63) / 64
	return &BitMatrix{
		rows: rows,
		cols: cols,
		wpc:  wpc,
		zero: make([]float64, cols),
		one:  make([]float64, cols),
		bits: make([]uint64, cols*wpc),
	}
}

// Rows returns the number of individuals.
func (m *BitMatrix) Rows() int { return m.rows }

// Cols returns the number of SNPs.
func (m *BitMatrix) Cols() int { return m.cols }

// At returns the contribution of individual i at SNP column j.
func (m *BitMatrix) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("lrtest: index (%d,%d) out of range for %dx%d bit matrix", i, j, m.rows, m.cols))
	}
	v := [2]float64{m.zero[j], m.one[j]}
	return v[m.bit(i, j)]
}

func (m *BitMatrix) bit(i, j int) uint64 {
	return (m.column(j)[i>>6] >> (uint(i) & 63)) & 1
}

// start returns the index in bits of column j's first word.
func (m *BitMatrix) start(j int) int {
	if m.off != nil {
		return m.off[j]
	}
	return j * m.wpc
}

// column returns the wpc = (rows+63)/64 words holding column j's cell bits.
func (m *BitMatrix) column(j int) []uint64 {
	s := m.start(j)
	return m.bits[s : s+m.wpc]
}

// withReps returns a matrix sharing m's cell bits (and a view's offsets) that
// decodes them through zero and one.
func (m *BitMatrix) withReps(zero, one []float64) *BitMatrix {
	return &BitMatrix{rows: m.rows, cols: m.cols, wpc: m.wpc, bits: m.bits, off: m.off, zero: zero, one: one}
}

// SizeBytes returns the in-memory footprint the matrix holds — its packed
// cells, or a view's word offsets instead of the cells it shares, plus the
// column representatives — the quantity enclave memory accounting charges
// for holding the matrix.
func (m *BitMatrix) SizeBytes() int64 {
	cells := int64(len(m.bits)) * 8
	if m.off != nil {
		cells = int64(len(m.off)) * 8
	}
	return cells + int64(len(m.zero))*8 + int64(len(m.one))*8
}

// RepsFinite reports whether every column representative (the two decoded
// log-ratio values per SNP) is a finite number. A NaN or ±Inf representative
// poisons every score the column touches; the leader's trust-boundary
// validation rejects member matrices that fail this check.
func (m *BitMatrix) RepsFinite() bool {
	for _, v := range m.zero {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	for _, v := range m.one {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// BuildBit computes the bit-packed LR-matrix for a genotype matrix given
// pooled frequencies — the member-side Phase 3 computation. A set bit
// records the minor allele, so one[j] = ratios.Minor[j] and
// zero[j] = ratios.Major[j]; this genotype orientation is what makes Reskin
// valid.
func BuildBit(g Genotypes, ratios LogRatios) (*BitMatrix, error) {
	if g.L() != len(ratios.Minor) {
		return nil, fmt.Errorf("%w: %d genotype columns vs %d frequency entries",
			ErrShapeMismatch, g.L(), len(ratios.Minor))
	}
	m := NewBitMatrix(g.N(), g.L())
	copy(m.zero, ratios.Major)
	copy(m.one, ratios.Minor)
	for i := 0; i < m.rows; i++ {
		word, mask := i>>6, uint64(1)<<(uint(i)&63)
		for j := 0; j < m.cols; j++ {
			if g.Get(i, j) {
				m.bits[j*m.wpc+word] |= mask
			}
		}
	}
	return m, nil
}

// BitFromColumnWords is BuildBit for genotypes that are already packed
// column-major: each of the len(ratios.Minor) columns is (rows+63)/64 words
// of words, row i at bit i of its span, a set bit recording the minor allele
// — the layout of a genome.Matrix. With offs nil the columns lie back to back,
// as genome.Matrix.Gather returns them; otherwise offs[j] is the index in
// words of column j's first word, and the matrix is a view over scattered
// columns of words — a genome.Matrix's own buffer, say. Either way the matrix
// adopts words and offs without copying, so the caller must not modify them
// while it is in use, and each column's tail bits (rows..64·wpc) must already
// be zero, as genome.Matrix keeps them; the result is then bit-identical to
// BuildBit over the same genotypes.
func BitFromColumnWords(rows int, words []uint64, offs []int, ratios LogRatios) (*BitMatrix, error) {
	m := &BitMatrix{rows: rows, cols: len(ratios.Minor), wpc: (rows + 63) / 64, bits: words, off: offs}
	if rows < 0 || len(ratios.Major) != m.cols || !m.spansFit() {
		return nil, fmt.Errorf("%w: %d column words for %d rows x %d/%d frequency entries (%d offsets)",
			ErrShapeMismatch, len(words), rows, len(ratios.Minor), len(ratios.Major), len(offs))
	}
	m.zero = append([]float64(nil), ratios.Major...)
	m.one = append([]float64(nil), ratios.Minor...)
	return m, nil
}

// spansFit reports whether every column's span lies inside bits: exactly
// cols·wpc words for back-to-back columns, one in-range offset per column for
// a view.
func (m *BitMatrix) spansFit() bool {
	if m.off == nil {
		return len(m.bits) == m.cols*m.wpc
	}
	if len(m.off) != m.cols {
		return false
	}
	for _, s := range m.off {
		if s < 0 || s > len(m.bits)-m.wpc {
			return false
		}
	}
	return true
}

// Reskin returns a matrix sharing this matrix's cell bits but decoding them
// through a different frequency vector's log ratios: one[j] = Minor[j],
// zero[j] = Major[j]. It is only meaningful on matrices whose bits carry
// genotype orientation (a set bit means the minor allele), i.e. matrices
// from BuildBit or merges of them — which is exactly how the collusion
// driver reuses one reference bit-pattern across every honest-subset
// combination. The bits (and a view's offsets) are shared read-only, so
// reskinned matrices are safe to score from concurrently.
func (m *BitMatrix) Reskin(ratios LogRatios) (*BitMatrix, error) {
	if m.cols != len(ratios.Minor) {
		return nil, fmt.Errorf("%w: %d matrix columns vs %d frequency entries",
			ErrShapeMismatch, m.cols, len(ratios.Minor))
	}
	return m.withReps(append([]float64(nil), ratios.Major...), append([]float64(nil), ratios.Minor...)), nil
}

// The column kernels below walk a column one 64-row word at a time: the word
// is loaded once and shifted, so the inner loop carries no per-row index
// arithmetic into the bit span. Rows are still visited in ascending order,
// which the float accumulations depend on.
// On amd64 with AVX-512F, addColumnCount and addColumnBand first hand the
// column's whole words to a vector kernel (kernels_amd64.go), eight rows to a
// vector, each lane doing the same addition and comparisons as the Go loop on
// its row; the Go loop then continues from the word the kernel stopped at,
// which is word 0 when useAVX512 is false.

// wordRows returns the up to 64 entries of a per-row vector that word wi of a
// column covers.
func wordRows(s []float64, wi int) []float64 {
	s = s[wi<<6:]
	return s[:min(64, len(s))]
}

// addColumn writes base + column j into dst (dst and base may alias). The
// loop is branchless: the cell bit indexes a two-element lookup.
func (m *BitMatrix) addColumn(dst, base []float64, j int) {
	v := [2]float64{m.zero[j], m.one[j]}
	base, dst = base[:m.rows], dst[:m.rows]
	for wi, word := range m.column(j) {
		x := wordRows(base, wi)
		d := wordRows(dst, wi)[:len(x)]
		for i, b := range x {
			d[i] = b + v[word&1]
			word >>= 1
		}
	}
}

// addColumnCount is addColumn fused with the Power numerator: it writes
// base + column j into dst and returns how many written scores exceed tau,
// saving the admission loop a second pass over the case rows. The counted
// comparisons are exactly Power's `score > tau` on the same values.
func (m *BitMatrix) addColumnCount(dst, base []float64, j int, tau float64) int {
	v := [2]float64{m.zero[j], m.one[j]}
	base, dst = base[:m.rows], dst[:m.rows]
	words := m.column(j)
	hits, done := addCountWords(dst, base, words, v[0], v[1], tau)
	for wi := done; wi < len(words); wi++ {
		word := words[wi]
		x := wordRows(base, wi)
		d := wordRows(dst, wi)[:len(x)]
		for i, b := range x {
			s := b + v[word&1]
			word >>= 1
			d[i] = s
			hit := 0
			if s > tau {
				hit = 1
			}
			hits += hit
		}
	}
	return hits
}

// addColumnKth is addColumn fused with the reference side's threshold: it
// writes base + column j into dst and returns the k-th smallest (0-indexed)
// of the written scores, given tau, the k-th smallest of base. No score is
// sorted. At least rows−k rows have base ≥ tau and at least k+1 have
// base ≤ tau, and rounded addition is monotone in each operand, so the
// wanted order statistic lies in the band [tau+min(rep), tau+max(rep)]: one
// pass counts the scores below the band and compacts the ones inside it into
// band (len ≥ rows, clobbered), and a quickselect over those — a few percent
// of the rows once some columns are in — finds the exact value (bandKth).
// DESIGN.md §5b has the argument in full. rows must be positive and
// 0 ≤ k < rows.
func (m *BitMatrix) addColumnKth(dst, base []float64, j, k int, tau float64, band []float64) float64 {
	lo, hi := tau+min(m.zero[j], m.one[j]), tau+max(m.zero[j], m.one[j])
	below, nb := m.addColumnBand(dst, base, j, lo, hi, band)
	return bandKth(band[:nb], k-below, lo, hi)
}

// addColumnBand is addColumnKth's pass: it writes base + column j into dst,
// counts the scores below lo and compacts the ones in [lo, hi] into
// band[:nb], in row order.
func (m *BitMatrix) addColumnBand(dst, base []float64, j int, lo, hi float64, band []float64) (below, nb int) {
	v := [2]float64{m.zero[j], m.one[j]}
	base, dst, band = base[:m.rows], dst[:m.rows], band[:m.rows]
	words := m.column(j)
	below, nb, done := addBandWords(dst, base, band, words, v[0], v[1], lo, hi)
	for wi := done; wi < len(words); wi++ {
		word := words[wi]
		x := wordRows(base, wi)
		d := wordRows(dst, wi)[:len(x)]
		for i, b := range x {
			s := b + v[word&1]
			word >>= 1
			d[i] = s
			// The store is unconditional and nb advances only for a score
			// inside the band, so the compaction has no data-dependent branch.
			band[nb] = s
			lt, le := 0, 0
			if s < lo {
				lt = 1
			}
			if s <= hi {
				le = 1
			}
			below += lt
			nb += le - lt
		}
	}
	return below, nb
}

// ColumnOnes returns the number of set bits in column j. On matrices whose
// bits carry genotype orientation (the LRPattern contract: a set bit records
// the minor allele) this is the column's minor-allele carrier count, which
// the leader cross-checks against the member's reported Phase 1 counts. The
// count is representation-dependent: on a matrix whose representatives were
// swapped and bits inverted (MergeBits's output may be one) it counts the
// other allele.
func (m *BitMatrix) ColumnOnes(j int) int {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("lrtest: column %d out of range for %d columns", j, m.cols))
	}
	return popcount(m.column(j))
}

// FlipBit inverts the cell bit at (i, j). It exists for fault injection —
// Byzantine harnesses perturb a single genotype bit to exercise the leader's
// cross-payload checks; production code never mutates a built matrix.
func (m *BitMatrix) FlipBit(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("lrtest: index (%d,%d) out of range for %dx%d bit matrix", i, j, m.rows, m.cols))
	}
	m.column(j)[i>>6] ^= 1 << (uint(i) & 63)
}

// Column returns a copy of column j as dense values.
func (m *BitMatrix) Column(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("lrtest: column %d out of range for %d columns", j, m.cols))
	}
	col := make([]float64, m.rows)
	v := [2]float64{m.zero[j], m.one[j]}
	for i := range col {
		col[i] = v[m.bit(i, j)]
	}
	return col
}

// Equal reports whether two bit matrices decode to identical cells. The
// comparison is representation-independent (two matrices with swapped
// representatives and inverted bits are equal) but value-exact: cells must
// match bit for bit.
func (m *BitMatrix) Equal(o *BitMatrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for j := 0; j < m.cols; j++ {
		mv := [2]float64{m.zero[j], m.one[j]}
		ov := [2]float64{o.zero[j], o.one[j]}
		for i := 0; i < m.rows; i++ {
			if math.Float64bits(mv[m.bit(i, j)]) != math.Float64bits(ov[o.bit(i, j)]) {
				return false
			}
		}
	}
	return true
}

// MergeBits concatenates bit-packed LR-matrices row-wise without decoding
// any cell: the merge of PAPER.md's Phase 3 Step 3, which no protocol path
// performs (the leader scores the member patterns where they lie,
// SelectSafeParts). Parts may disagree on which representative a set bit
// denotes — swapped representatives over inverted bits decode to the same
// cells — so each part's column is first normalized: its *used*
// values — zero[j] if any bit is clear, one[j] if any is set — are matched
// bitwise against the output column's representatives, and the part's words
// are spliced in verbatim, inverted, or as a constant run accordingly. A
// column with more than two distinct used values across the parts returns
// ErrNotCompactable.
func MergeBits(ms ...*BitMatrix) (*BitMatrix, error) {
	if len(ms) == 0 {
		return NewBitMatrix(0, 0), nil
	}
	cols := ms[0].cols
	rows := 0
	for _, m := range ms {
		if m.cols != cols {
			return nil, fmt.Errorf("%w: %d vs %d columns", ErrShapeMismatch, m.cols, cols)
		}
		rows += m.rows
	}
	out := NewBitMatrix(rows, cols)
	for j := 0; j < cols; j++ {
		reps := [2]uint64{}
		seen := 0
		// assign maps a used value to its output bit, registering it if new.
		assign := func(v float64) (uint64, error) {
			b := math.Float64bits(v)
			for r := 0; r < seen; r++ {
				if reps[r] == b {
					return uint64(r), nil
				}
			}
			if seen == 2 {
				return 0, fmt.Errorf("%w: column %d across merge parts", ErrNotCompactable, j)
			}
			reps[seen] = b
			seen++
			return uint64(seen - 1), nil
		}
		span := out.column(j)
		off := 0
		for _, m := range ms {
			if m.rows == 0 {
				continue
			}
			part := m.column(j)
			set := popcount(part)
			var zeroBit, oneBit uint64 = 0, 1
			var err error
			if set < m.rows { // the clear-bit value appears
				if zeroBit, err = assign(m.zero[j]); err != nil {
					return nil, err
				}
			}
			if set > 0 { // the set-bit value appears
				if oneBit, err = assign(m.one[j]); err != nil {
					return nil, err
				}
			}
			switch {
			case set == 0:
				spliceConst(span, off, m.rows, zeroBit)
			case set == m.rows:
				spliceConst(span, off, m.rows, oneBit)
			case zeroBit == 0 && oneBit == 1:
				spliceWords(span, off, part, m.rows, false)
			default: // zeroBit == 1 && oneBit == 0: the part is inverted
				spliceWords(span, off, part, m.rows, true)
			}
			off += m.rows
		}
		if seen > 0 {
			out.zero[j] = math.Float64frombits(reps[0])
		}
		if seen > 1 {
			out.one[j] = math.Float64frombits(reps[1])
		} else {
			out.one[j] = out.zero[j]
		}
	}
	return out, nil
}

func popcount(words []uint64) int {
	c := 0
	for _, w := range words {
		c += bits.OnesCount64(w)
	}
	return c
}

// spliceConst ORs n copies of bit into dst starting at bit offset off.
func spliceConst(dst []uint64, off, n int, bit uint64) {
	if bit == 0 {
		return
	}
	for n > 0 {
		word, sh := off>>6, uint(off)&63
		take := 64 - int(sh)
		if take > n {
			take = n
		}
		dst[word] |= (ones(take)) << sh
		off += take
		n -= take
	}
}

// ones returns a word with the low n bits set (0 <= n <= 64).
func ones(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// spliceWords ORs the low n bits of src (tail bits beyond n are zero by the
// column invariant) into dst starting at bit offset off, optionally
// inverting them.
func spliceWords(dst []uint64, off int, src []uint64, n int, invert bool) {
	word, sh := off>>6, uint(off)&63
	rem := n
	for w := 0; w < len(src) && rem > 0; w++ {
		v := src[w]
		if invert {
			v = ^v
		}
		take := 64
		if take > rem {
			take = rem
			v &= ones(take)
		}
		dst[word+w] |= v << sh
		if sh != 0 {
			if hi := v >> (64 - sh); hi != 0 {
				dst[word+w+1] |= hi
			}
		}
		rem -= take
	}
}

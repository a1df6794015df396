package lrtest

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Wire-format tags for serialized LR-matrices. Tag 1 was a dense float64
// encoding; nothing writes it, and DecodeWireBit rejects it as unknown.
const (
	wireDense   = 1
	wireCompact = 2
)

// ErrNotCompactable is returned when a column holds more than two distinct
// values and so cannot be stored one bit per cell.
var ErrNotCompactable = errors.New("lrtest: matrix column has more than two distinct values")

// BitMatrix is the LR-matrix, stored by exploiting the structure of
// Equation 1: every column holds at most two distinct values (the minor- and
// major-allele contributions), so the matrix stores as one bit per cell plus
// two float64 representatives per column — the in-memory analogue of the
// compact wire format, roughly 60x smaller than a float64 per cell for the
// paper's cohort sizes.
//
// Bits are stored column-major (column j occupies the words
// bits[j*wpc:(j+1)*wpc], row i at bit i of that span) so the kernel's hot
// loops — ScoreSubset, the greedy admission scan, discriminability means —
// are stride-1 passes over a column's words. Unused tail bits of each
// column's last word are always zero; every constructor maintains this
// invariant.
//
// Cell (i,j) decodes to one[j] when its bit is set and zero[j] otherwise.
// All per-cell arithmetic iterates rows in ascending order and decodes cells
// branchlessly through a two-element lookup, so every score is the same
// sequence of float additions as summing a float64-per-cell matrix row by
// row in column order, and bit-for-bit identical to it.
type BitMatrix struct {
	rows, cols int
	wpc        int // column stride in words: wpc ≥ (rows+63)/64, more on a PatternStack view
	// zero/one are per-column decode values derived from the candidate
	// release's frequencies: cohort-level, aggregate-class secrets.
	//gendpr:secret(aggregate)
	zero []float64 // per-column value decoded for a clear bit
	//gendpr:secret(aggregate)
	one []float64 // per-column value decoded for a set bit
	// bits carries one cell per individual per SNP: per-individual secret.
	//gendpr:secret(individual)
	bits []uint64 // column-major cell bits, cols*wpc words
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
	return (m.bits[j*m.wpc+i>>6] >> (uint(i) & 63)) & 1
}

// SizeBytes returns the in-memory footprint of the packed cells and column
// representatives — the quantity enclave memory accounting charges for
// holding the matrix.
func (m *BitMatrix) SizeBytes() int64 {
	return int64(len(m.bits))*8 + int64(len(m.zero))*8 + int64(len(m.one))*8
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

// RowBitSource is an optional Genotypes extension: genotype matrices that
// expose their packed row words (genome.Matrix does) let BuildBit transpose
// bits word-by-word instead of through per-cell interface calls.
type RowBitSource interface {
	// RowWords returns the packed genotype bits of row i, L() bits
	// little-endian, read-only.
	RowWords(i int) []uint64
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
	if src, ok := g.(RowBitSource); ok {
		for i := 0; i < m.rows; i++ {
			row := src.RowWords(i)
			word, mask := i>>6, uint64(1)<<(uint(i)&63)
			for j := 0; j < m.cols; j++ {
				if row[j>>6]&(1<<(uint(j)&63)) != 0 {
					m.bits[j*m.wpc+word] |= mask
				}
			}
		}
		return m, nil
	}
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
// column-major: words holds len(ratios.Minor) columns of (rows+63)/64 words
// each, row i at bit i of its column's span, a set bit recording the minor
// allele — the layout genome.ColumnBits.Gather returns. The matrix adopts
// words without copying, so the caller must not retain it, and each column's
// tail bits (rows..64·wpc) must already be zero, as ColumnBits keeps them;
// the result is then bit-identical to BuildBit over the same genotypes.
func BitFromColumnWords(rows int, words []uint64, ratios LogRatios) (*BitMatrix, error) {
	m := &BitMatrix{rows: rows, cols: len(ratios.Minor), wpc: (rows + 63) / 64, bits: words}
	if rows < 0 || len(ratios.Major) != m.cols || len(words) != m.cols*m.wpc {
		return nil, fmt.Errorf("%w: %d column words for %d rows x %d/%d frequency entries",
			ErrShapeMismatch, len(words), rows, len(ratios.Minor), len(ratios.Major))
	}
	m.zero = append([]float64(nil), ratios.Major...)
	m.one = append([]float64(nil), ratios.Minor...)
	return m, nil
}

// Reskin returns a matrix sharing this matrix's cell bits but decoding them
// through a different frequency vector's log ratios: one[j] = Minor[j],
// zero[j] = Major[j]. It is only meaningful on matrices whose bits carry
// genotype orientation (a set bit means the minor allele), i.e. matrices
// from BuildBit or merges of them — which is exactly how the collusion
// driver reuses one reference bit-pattern across every honest-subset
// combination. The bits are shared read-only, so reskinned matrices are safe
// to score from concurrently.
func (m *BitMatrix) Reskin(ratios LogRatios) (*BitMatrix, error) {
	if m.cols != len(ratios.Minor) {
		return nil, fmt.Errorf("%w: %d matrix columns vs %d frequency entries",
			ErrShapeMismatch, m.cols, len(ratios.Minor))
	}
	out := &BitMatrix{rows: m.rows, cols: m.cols, wpc: m.wpc, bits: m.bits}
	out.zero = append([]float64(nil), ratios.Major...)
	out.one = append([]float64(nil), ratios.Minor...)
	return out, nil
}

// ScoreSubset sums each row's contributions over the given column subset,
// producing per-individual LR statistics: columns accumulate in subset order
// and rows ascending.
func (m *BitMatrix) ScoreSubset(cols []int) []float64 {
	scores := make([]float64, m.rows)
	for _, j := range cols {
		if j < 0 || j >= m.cols {
			panic(fmt.Sprintf("lrtest: column %d out of range for %d columns", j, m.cols))
		}
		m.addColumn(scores, scores, j)
	}
	return scores
}

// The column kernels below walk a column one 64-row word at a time: the word
// is loaded once and shifted, so the inner loop carries no per-row index
// arithmetic into the bit span. The words to visit follow from rows, not from
// the stride — a PatternStack view's wpc covers its capacity — and rows are
// still visited in ascending order, which the float accumulations depend on.
// On amd64 with AVX-512F, addColumnCount and addColumnBand first hand the
// column's whole words to a vector kernel (kernels_amd64.go), eight rows to a
// vector, each lane doing the same addition and comparisons as the Go loop on
// its row; the Go loop then continues from the word the kernel stopped at,
// which is word 0 when useAVX512 is false.

// colWords returns the (rows+63)/64 words holding column j's cell bits.
func (m *BitMatrix) colWords(j int) []uint64 {
	return m.bits[j*m.wpc:][:(m.rows+63)>>6]
}

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
	for wi, word := range m.colWords(j) {
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
	words := m.colWords(j)
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
	words := m.colWords(j)
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
// count is representation-dependent and meaningless on matrices from
// DecodeWireBit, whose bit polarity follows row-scan first-seen order.
func (m *BitMatrix) ColumnOnes(j int) int {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("lrtest: column %d out of range for %d columns", j, m.cols))
	}
	return popcount(m.bits[j*m.wpc : (j+1)*m.wpc])
}

// FlipBit inverts the cell bit at (i, j). It exists for fault injection —
// Byzantine harnesses perturb a single genotype bit to exercise the leader's
// cross-payload checks; production code never mutates a built matrix.
func (m *BitMatrix) FlipBit(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("lrtest: index (%d,%d) out of range for %dx%d bit matrix", i, j, m.rows, m.cols))
	}
	m.bits[j*m.wpc+i>>6] ^= 1 << (uint(i) & 63)
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

// MergeBits concatenates bit-packed LR-matrices row-wise — the
// leader-enclave merge of Phase 3 Step 3 — without decoding any cell. Parts may disagree on which representative a set bit denotes
// (the compact wire format records them in row-scan first-seen order, which
// varies per shard), so each part's column is first normalized: its *used*
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
		span := out.bits[j*out.wpc : (j+1)*out.wpc]
		off := 0
		for _, m := range ms {
			if m.rows == 0 {
				continue
			}
			part := m.bits[j*m.wpc : (j+1)*m.wpc]
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

// EncodeWire serializes the matrix in the compact wire format: the tag,
// rows and cols as 8-byte big-endian integers, each column's two
// representatives in row-scan first-seen order (a column with one effective
// value repeats it), then one bit per cell in row-major order, set when the
// cell holds the second representative. For a matrix with rows, the bytes
// depend only on the cell values, not on which representative a set bit
// denotes in memory.
func (m *BitMatrix) EncodeWire() []byte {
	bitBytes := (m.rows*m.cols + 7) / 8
	buf := make([]byte, 0, 17+16*m.cols+bitBytes)
	buf = append(buf, wireCompact)
	var tmp [8]byte
	appendU64 := func(v uint64) {
		putUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	appendU64(uint64(m.rows))
	appendU64(uint64(m.cols))

	// mode per column: 0 = all bits zero on the wire, 1 = copy column bits,
	// 2 = invert column bits.
	const (
		wireZero = iota
		wireCopy
		wireInvert
	)
	modes := make([]byte, m.cols)
	for j := 0; j < m.cols; j++ {
		lo, hi := m.zero[j], m.one[j]
		mode := byte(wireZero)
		if m.rows > 0 {
			span := m.bits[j*m.wpc : (j+1)*m.wpc]
			set := popcount(span)
			switch {
			//gendpr:allow(floateq): the wire format collapses float-equal representatives into one value
			case set == 0 || set == m.rows || lo == hi:
				// Single effective value: the row-0 cell is recorded as lo
				// and no bit is set.
				v := [2]float64{lo, hi}
				lo = v[m.bit(0, j)]
				hi = lo
			case m.bit(0, j) == 0:
				// Row-scan first sees the clear-bit value: wire bits match
				// the stored bits.
				mode = wireCopy
			default:
				// Row-scan first sees the set-bit value: it becomes the wire
				// lo, so wire bits are the stored bits inverted.
				lo, hi = hi, lo
				mode = wireInvert
			}
		}
		modes[j] = mode
		appendU64(math.Float64bits(lo))
		appendU64(math.Float64bits(hi))
	}
	wire := make([]byte, bitBytes)
	for j := 0; j < m.cols; j++ {
		mode := modes[j]
		if mode == wireZero {
			continue
		}
		flip := uint64(0)
		if mode == wireInvert {
			flip = 1
		}
		w := m.bits[j*m.wpc : (j+1)*m.wpc]
		for i := 0; i < m.rows; i++ {
			if (w[i>>6]>>(uint(i)&63))&1 != flip {
				idx := i*m.cols + j
				wire[idx/8] |= 1 << (uint(idx) % 8)
			}
		}
	}
	return append(buf, wire...)
}

// DecodeWireBit decodes a compact wire-format LR-matrix (EncodeWire's
// output) into the bit-packed form. Any other tag is an error.
func DecodeWireBit(b []byte) (*BitMatrix, error) {
	if len(b) == 0 {
		return nil, errors.New("lrtest: empty wire encoding")
	}
	if b[0] != wireCompact {
		return nil, fmt.Errorf("lrtest: unknown wire tag %d", b[0])
	}
	return bitFromCompactBytes(b[1:])
}

func bitFromCompactBytes(b []byte) (*BitMatrix, error) {
	if len(b) < 16 {
		return nil, errors.New("lrtest: compact encoding too short")
	}
	rows := int(getUint64(b[0:8]))
	cols := int(getUint64(b[8:16]))
	if rows < 0 || cols < 0 || rows > 1<<30 || cols > 1<<30 {
		return nil, errors.New("lrtest: compact encoding has implausible shape")
	}
	bitBytes := (rows*cols + 7) / 8
	want := 16 + 16*cols + bitBytes
	if len(b) != want {
		return nil, fmt.Errorf("lrtest: compact encoding has %d bytes, want %d", len(b), want)
	}
	m := NewBitMatrix(rows, cols)
	for j := 0; j < cols; j++ {
		m.zero[j] = math.Float64frombits(getUint64(b[16+16*j : 24+16*j]))
		m.one[j] = math.Float64frombits(getUint64(b[24+16*j : 32+16*j]))
	}
	wire := b[16+16*cols:]
	for i := 0; i < rows; i++ {
		word, mask := i>>6, uint64(1)<<(uint(i)&63)
		for j := 0; j < cols; j++ {
			idx := i*cols + j
			if wire[idx/8]&(1<<(uint(idx)%8)) != 0 {
				m.bits[j*m.wpc+word] |= mask
			}
		}
	}
	return m, nil
}

// BuildBitFromColumnBytes builds a bit-packed LR-matrix from per-column
// genotype bitsets — rows bits each, little-endian bytes, bit i set when
// individual i carries the minor allele — as produced by an ORAM column
// store. Tail bits beyond rows in the final byte are masked off, so callers
// need not sanitize them.
func BuildBitFromColumnBytes(rows int, ratios LogRatios, column func(j int) ([]byte, error)) (*BitMatrix, error) {
	m := NewBitMatrix(rows, len(ratios.Minor))
	copy(m.zero, ratios.Major)
	copy(m.one, ratios.Minor)
	want := (rows + 7) / 8
	for j := 0; j < m.cols; j++ {
		col, err := column(j)
		if err != nil {
			return nil, err
		}
		if len(col) < want {
			return nil, fmt.Errorf("lrtest: column %d has %d bytes for %d rows", j, len(col), rows)
		}
		span := m.bits[j*m.wpc : (j+1)*m.wpc]
		for b := 0; b < want; b++ {
			span[b>>3] |= uint64(col[b]) << (uint(b) & 7 * 8)
		}
		if tail := rows & 63; tail != 0 {
			span[len(span)-1] &= ones(tail)
		}
	}
	return m, nil
}

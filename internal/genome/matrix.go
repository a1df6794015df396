// Package genome models genotype data for genome-wide association studies.
//
// Genotypes follow the encoding of the paper's Table 1: each individual is a
// row, each SNP position a column, and the cell holds 1 when the individual
// carries the minor allele at that position and 0 otherwise. The matrix is
// bitset-backed so that a 27,895 x 10,000 cohort (the paper's largest) fits in
// a few tens of megabytes and allele counting reduces to popcounts.
package genome

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// wordBits is the number of genotype cells packed into one storage word.
const wordBits = 64

var (
	// ErrDimensionMismatch is returned when two matrices that must agree on
	// their SNP dimension do not.
	ErrDimensionMismatch = errors.New("genome: SNP dimension mismatch")

	// ErrIndexOutOfRange is returned for out-of-bounds row or column access.
	ErrIndexOutOfRange = errors.New("genome: index out of range")
)

// Matrix is a dense binary genotype matrix with n individuals (rows) and l
// SNP positions (columns). The zero value is an empty matrix; use NewMatrix
// to allocate one with a fixed shape.
type Matrix struct {
	n      int
	l      int
	stride int // words per row
	// words is the raw per-individual genotype storage; the secretflow
	// analyzer taints every read of it (STATIC_ANALYSIS.md).
	//gendpr:secret(individual)
	words []uint64

	// cols memoizes the column-major view (see Columns): built once under
	// colsMu on first use, shared by every reader, dropped by Set.
	colsMu sync.Mutex
	cols   atomic.Pointer[ColumnBits]
}

// NewMatrix allocates an n-by-l genotype matrix initialized to the major
// allele (all zeros).
func NewMatrix(n, l int) *Matrix {
	if n < 0 || l < 0 {
		return &Matrix{}
	}
	stride := (l + wordBits - 1) / wordBits
	return &Matrix{
		n:      n,
		l:      l,
		stride: stride,
		words:  make([]uint64, n*stride),
	}
}

// N returns the number of individuals (rows).
func (m *Matrix) N() int { return m.n }

// L returns the number of SNP positions (columns).
func (m *Matrix) L() int { return m.l }

// Get reports whether individual i carries the minor allele at SNP position l.
func (m *Matrix) Get(i, l int) bool {
	m.mustBound(i, l)
	w := m.words[i*m.stride+l/wordBits]
	return w&(1<<(uint(l)%wordBits)) != 0
}

// GetBit returns the allele of individual i at SNP position l as a bare bit
// (1 encodes the minor allele). Unlike Get it involves no data-dependent
// branch, so enclave-resident loaders can fold genotype bits into buffers
// with pure mask arithmetic and keep their memory trace data-independent.
func (m *Matrix) GetBit(i, l int) byte {
	m.mustBound(i, l)
	w := m.words[i*m.stride+l/wordBits]
	return byte(w >> (uint(l) % wordBits) & 1)
}

// Set stores the allele of individual i at SNP position l: true encodes the
// minor allele, false the major allele.
func (m *Matrix) Set(i, l int, minor bool) {
	m.mustBound(i, l)
	idx := i*m.stride + l/wordBits
	mask := uint64(1) << (uint(l) % wordBits)
	if minor {
		m.words[idx] |= mask
	} else {
		m.words[idx] &^= mask
	}
	if m.cols.Load() != nil {
		m.cols.Store(nil)
	}
}

func (m *Matrix) mustBound(i, l int) {
	if i < 0 || i >= m.n || l < 0 || l >= m.l {
		panic(fmt.Sprintf("genome: index (%d,%d) out of range for %dx%d matrix", i, l, m.n, m.l))
	}
}

// row returns the word slice backing row i.
func (m *Matrix) row(i int) []uint64 {
	return m.words[i*m.stride : (i+1)*m.stride]
}

// RowWords returns the packed genotype bits of row i — L() bits
// little-endian, bit l set when individual i carries the minor allele at SNP
// l. The slice aliases the matrix storage and must be treated as read-only;
// it lets bit-packed consumers (lrtest.BuildBit) transpose genotypes without
// a per-cell interface call.
func (m *Matrix) RowWords(i int) []uint64 {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("genome: row %d out of range for %d rows", i, m.n))
	}
	return m.row(i)
}

// AlleleCount returns the number of individuals carrying the minor allele at
// SNP position l.
func (m *Matrix) AlleleCount(l int) int64 {
	if l < 0 || l >= m.l {
		panic(fmt.Sprintf("genome: SNP %d out of range for %d columns", l, m.l))
	}
	word := l / wordBits
	mask := uint64(1) << (uint(l) % wordBits)
	var c int64
	for i := 0; i < m.n; i++ {
		if m.words[i*m.stride+word]&mask != 0 {
			c++
		}
	}
	return c
}

// AlleleCounts returns the per-SNP minor-allele counts over all individuals.
// This is the caseLocalCounts vector each GDO outsources during Phase 1.
func (m *Matrix) AlleleCounts() []int64 {
	counts := make([]int64, m.l)
	for i := 0; i < m.n; i++ {
		row := m.row(i)
		for w, word := range row {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				counts[w*wordBits+b]++
				word &= word - 1
			}
		}
	}
	return counts
}

// PairCount returns the number of individuals that carry the minor allele at
// both positions l1 and l2 (the C11 cell of the pairwise contingency table;
// the remaining cells follow from the single counts and N).
func (m *Matrix) PairCount(l1, l2 int) int64 {
	if l1 < 0 || l1 >= m.l || l2 < 0 || l2 >= m.l {
		panic(fmt.Sprintf("genome: SNP pair (%d,%d) out of range for %d columns", l1, l2, m.l))
	}
	w1, mask1 := l1/wordBits, uint64(1)<<(uint(l1)%wordBits)
	w2, mask2 := l2/wordBits, uint64(1)<<(uint(l2)%wordBits)
	var c int64
	for i := 0; i < m.n; i++ {
		base := i * m.stride
		if m.words[base+w1]&mask1 != 0 && m.words[base+w2]&mask2 != 0 {
			c++
		}
	}
	return c
}

// PairStats holds the pooled sufficient statistics for the correlation of a
// SNP pair over one dataset: the sums the GDO enclaves outsource during Phase
// 2 (mu_l, mu_l+1, mu_(l,l+1), mu_l^2, mu_(l+1)^2 in the paper's notation)
// plus the number of individuals they were computed over.
//
// For binary genotypes SumXX == SumX and SumYY == SumY, but the fields are
// kept separate because the protocol exchanges them explicitly and other
// encodings (e.g. 0/1/2 genotype dosage) would not collapse.
type PairStats struct {
	N     int64
	SumX  int64
	SumY  int64
	SumXY int64
	SumXX int64
	SumYY int64
}

// Add accumulates another dataset's statistics for the same SNP pair. This is
// the leader-enclave aggregation step of Phase 2.
func (s PairStats) Add(o PairStats) PairStats {
	return PairStats{
		N:     s.N + o.N,
		SumX:  s.SumX + o.SumX,
		SumY:  s.SumY + o.SumY,
		SumXY: s.SumXY + o.SumXY,
		SumXX: s.SumXX + o.SumXX,
		SumYY: s.SumYY + o.SumYY,
	}
}

// PairStats computes the correlation sufficient statistics between SNP
// positions l1 and l2 over all individuals of the matrix.
func (m *Matrix) PairStats(l1, l2 int) PairStats {
	return PairStatsFromCounts(int64(m.n), m.AlleleCount(l1), m.AlleleCount(l2), m.PairCount(l1, l2))
}

// PairStatsFromCounts assembles pair statistics from already-known
// minor-allele counts (x at the first SNP, y at the second, xy at both) over
// n binary genotypes. Callers holding a precomputed count vector — every
// assessment does after Phase 1 — pay one PairCount pass per pair instead of
// the three column scans PairStats makes.
func PairStatsFromCounts(n, x, y, xy int64) PairStats {
	return PairStats{
		N:     n,
		SumX:  x,
		SumY:  y,
		SumXY: xy,
		SumXX: x,
		SumYY: y,
	}
}

// SelectColumns returns a new matrix restricted to the given SNP positions,
// in the given order. It is used to project a dataset onto a retained SNP
// subset (L', L”) between protocol phases.
func (m *Matrix) SelectColumns(cols []int) *Matrix {
	out := NewMatrix(m.n, len(cols))
	for j, l := range cols {
		if l < 0 || l >= m.l {
			panic(fmt.Sprintf("genome: SNP %d out of range for %d columns", l, m.l))
		}
		w, mask := l/wordBits, uint64(1)<<(uint(l)%wordBits)
		ow, omask := j/wordBits, uint64(1)<<(uint(j)%wordBits)
		for i := 0; i < m.n; i++ {
			if m.words[i*m.stride+w]&mask != 0 {
				out.words[i*out.stride+ow] |= omask
			}
		}
	}
	return out
}

// SelectRows returns a new matrix containing rows [lo, hi).
func (m *Matrix) SelectRows(lo, hi int) *Matrix {
	if lo < 0 || hi > m.n || lo > hi {
		panic(fmt.Sprintf("genome: row range [%d,%d) out of range for %d rows", lo, hi, m.n))
	}
	out := NewMatrix(hi-lo, m.l)
	copy(out.words, m.words[lo*m.stride:hi*m.stride])
	return out
}

// Concat returns a new matrix with the rows of m followed by the rows of
// others. All matrices must share the SNP dimension. This is the leader-side
// LR-matrix merge of Phase 3 generalized to genotype matrices.
func Concat(ms ...*Matrix) (*Matrix, error) {
	if len(ms) == 0 {
		return NewMatrix(0, 0), nil
	}
	l := ms[0].l
	n := 0
	for _, m := range ms {
		if m.l != l {
			return nil, fmt.Errorf("%w: %d vs %d columns", ErrDimensionMismatch, m.l, l)
		}
		n += m.n
	}
	out := NewMatrix(n, l)
	at := 0
	for _, m := range ms {
		copy(out.words[at*out.stride:], m.words[:m.n*m.stride])
		at += m.n
	}
	return out, nil
}

// Equal reports whether two matrices have identical shape and genotypes.
func (m *Matrix) Equal(o *Matrix) bool {
	return m.n == o.n && m.l == o.l && slices.Equal(m.words, o.words)
}

// SizeBytes returns the in-memory footprint of the genotype words, the
// quantity enclave memory accounting charges for holding the matrix.
func (m *Matrix) SizeBytes() int64 {
	return int64(len(m.words)) * 8
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.n, m.l)
	copy(out.words, m.words)
	return out
}

// Bytes serializes the matrix into a compact binary form:
// n, l as 8-byte big-endian integers followed by the row words in row order.
func (m *Matrix) Bytes() []byte {
	buf := make([]byte, 16+len(m.words)*8)
	binary.BigEndian.PutUint64(buf[0:8], uint64(m.n))
	binary.BigEndian.PutUint64(buf[8:16], uint64(m.l))
	for i, w := range m.words {
		binary.BigEndian.PutUint64(buf[16+i*8:24+i*8], w)
	}
	return buf
}

// MatrixFromBytes reverses Matrix.Bytes.
func MatrixFromBytes(b []byte) (*Matrix, error) {
	if len(b) < 16 {
		return nil, errors.New("genome: matrix encoding too short")
	}
	n := int(binary.BigEndian.Uint64(b[0:8]))
	l := int(binary.BigEndian.Uint64(b[8:16]))
	if n < 0 || l < 0 || n > 1<<30 || l > 1<<30 {
		return nil, errors.New("genome: matrix encoding has implausible shape")
	}
	// Validate the payload length before allocating: a hostile header must
	// not drive a huge allocation.
	stride := int64((l + wordBits - 1) / wordBits)
	want := 16 + int64(n)*stride*8
	if int64(len(b)) != want {
		return nil, fmt.Errorf("genome: matrix encoding has %d bytes, want %d", len(b), want)
	}
	m := NewMatrix(n, l)
	for i := range m.words {
		m.words[i] = binary.BigEndian.Uint64(b[16+i*8 : 24+i*8])
	}
	return m, nil
}

// ColumnBits is a column-major transpose of a genotype matrix: column l's n
// bits are packed contiguously, so allele counts collapse to popcounts over
// stride-1 words and pair counts to an AND+popcount sweep. The row-major
// Matrix pays one cache miss per row for these queries (rows are a full
// stride apart); the LD phase asks for thousands of pair counts, which makes
// this view the difference between a memory-bound and a compute-bound scan.
//
// The view is a snapshot: mutations to the source matrix after Transpose are
// not reflected. Unused tail bits of each column's last word are zero.
type ColumnBits struct {
	n, l int
	wpc  int // words per column: (n+63)/64
	//gendpr:secret(individual)
	bits []uint64
	// counts is the per-SNP minor-allele count vector (the popcount of each
	// column) — the caseLocalCounts a GDO outsources in Phase 1.
	//gendpr:secret(aggregate)
	counts []int64
}

// Columns returns the matrix's column-major view, building it on first use
// and returning the same view afterwards: the transpose is the per-GDO
// preprocessing step, paid once per matrix rather than once per assessment.
// Set drops the memo, so a view obtained after a write reflects it; a matrix
// that is being read through its view must not be written concurrently, the
// same rule every other accessor already imposes — and here the damage would
// outlive the race: a Set that lands while the first Columns call is still
// transposing is not seen by it, and the stale view stays memoized until the
// next Set. Clone, SelectRows, SelectColumns and Concat return fresh matrices
// without a memo.
func (m *Matrix) Columns() *ColumnBits {
	if t := m.cols.Load(); t != nil {
		return t
	}
	m.colsMu.Lock()
	defer m.colsMu.Unlock()
	t := m.cols.Load()
	if t == nil {
		t = m.Transpose()
		m.cols.Store(t)
	}
	return t
}

// Transpose builds a fresh column-major view, and its count vector, in one
// pass over the matrix's set bits. Protocol code shares the memoized view
// from Columns instead.
func (m *Matrix) Transpose() *ColumnBits {
	wpc := (m.n + wordBits - 1) / wordBits
	t := &ColumnBits{n: m.n, l: m.l, wpc: wpc, bits: make([]uint64, m.l*wpc), counts: make([]int64, m.l)}
	var blk [wordBits]uint64
	for bi := 0; bi < wpc; bi++ {
		i0 := bi * wordBits
		rows := m.n - i0
		if rows > wordBits {
			rows = wordBits
		}
		// One 64-row stripe of the matrix stays cache-resident while every
		// 64-column block in it is gathered and transposed.
		for w := 0; w < m.stride; w++ {
			var any uint64
			for k := 0; k < rows; k++ {
				blk[k] = m.words[(i0+k)*m.stride+w]
				any |= blk[k]
			}
			if any == 0 {
				continue // destination words are already zero
			}
			for k := rows; k < wordBits; k++ {
				blk[k] = 0
			}
			transpose64(&blk)
			c0 := w * wordBits
			cmax := m.l - c0
			if cmax > wordBits {
				cmax = wordBits
			}
			for j := 0; j < cmax; j++ {
				t.bits[(c0+j)*wpc+bi] = blk[j]
				t.counts[c0+j] += int64(bits.OnesCount64(blk[j]))
			}
		}
	}
	return t
}

// transpose64 transposes a 64x64 bit block in place: bit j of word k moves to
// bit k of word j (LSB-first on both axes). The recursive block-swap runs in
// 6 rounds of masked exchanges instead of 4096 single-bit moves.
func transpose64(a *[wordBits]uint64) {
	mask := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < wordBits; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & mask
			a[k+j] ^= t
			a[k] ^= t << uint(j)
		}
		mask ^= mask << uint(j>>1)
	}
}

// N returns the number of individuals.
func (t *ColumnBits) N() int { return t.n }

// L returns the number of SNP positions.
func (t *ColumnBits) L() int { return t.l }

func (t *ColumnBits) column(l int) []uint64 {
	if l < 0 || l >= t.l {
		panic(fmt.Sprintf("genome: SNP %d out of range for %d columns", l, t.l))
	}
	return t.bits[l*t.wpc : (l+1)*t.wpc]
}

// AlleleCount returns the number of individuals carrying the minor allele at
// SNP position l.
func (t *ColumnBits) AlleleCount(l int) int64 {
	var c int
	for _, w := range t.column(l) {
		c += bits.OnesCount64(w)
	}
	return int64(c)
}

// AlleleCounts returns the per-SNP minor-allele counts, equal to
// Matrix.AlleleCounts on the source matrix. The slice is the view's own
// vector, computed with the transpose, and must be treated as read-only.
func (t *ColumnBits) AlleleCounts() []int64 { return t.counts }

// Gather returns the packed words of the given columns, in the given order:
// column cols[j] occupies words [j*wpc, (j+1)*wpc) of the result, wpc =
// (N()+63)/64, row i at bit i of that span — the layout lrtest.BitMatrix
// stores, so a Phase-3 pattern over cols is this copy and nothing else. Bits
// N()..64·wpc of every span are zero, as in the view. The result is freshly
// allocated and owned by the caller.
func (t *ColumnBits) Gather(cols []int) ([]uint64, error) {
	out := make([]uint64, len(cols)*t.wpc)
	for j, l := range cols {
		if l < 0 || l >= t.l {
			return nil, fmt.Errorf("%w: gathered SNP outside the view's %d columns", ErrIndexOutOfRange, t.l)
		}
		copy(out[j*t.wpc:(j+1)*t.wpc], t.bits[l*t.wpc:(l+1)*t.wpc])
	}
	return out, nil
}

// PairCount returns the number of individuals carrying the minor allele at
// both positions — popcount of the columns' intersection.
func (t *ColumnBits) PairCount(l1, l2 int) int64 {
	a, b := t.column(l1), t.column(l2)
	var c int
	for i := range a {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return int64(c)
}

// PairStats computes the correlation sufficient statistics between SNP
// positions l1 and l2, equivalent to Matrix.PairStats on the source matrix.
func (t *ColumnBits) PairStats(l1, l2 int) PairStats {
	return PairStatsFromCounts(int64(t.n), t.AlleleCount(l1), t.AlleleCount(l2), t.PairCount(l1, l2))
}

// Package genome models genotype data for genome-wide association studies.
//
// Genotypes follow the encoding of the paper's Table 1: each individual is a
// row, each SNP position a column, and the cell holds 1 when the individual
// carries the minor allele at that position and 0 otherwise. A genome data
// owner prepares its genotypes once and then answers only per-SNP questions —
// Phase-1 counts, Phase-2 pair sums, Phase-3 column patterns — so the matrix
// is bit-packed column-major from the moment it is built: an allele count is
// a lookup, a pair count an AND+popcount of two stride-1 columns, and a
// pattern a copy of whole columns. A 27,895 x 10,000 cohort (the paper's
// largest) fits in a few tens of megabytes.
package genome

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
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
//
// A matrix that is being read must not be written concurrently.
type Matrix struct {
	n   int
	l   int
	wpc int // words per column: (n+63)/64
	// words holds column l's n bits at words[l*wpc:(l+1)*wpc], row i at bit
	// i of that span — the layout lrtest.BitMatrix stores — and bits n..64·wpc
	// of every span zero. The secretflow analyzer taints every read of it
	// (STATIC_ANALYSIS.md).
	//gendpr:secret(individual)
	words []uint64
	// counts is the per-SNP minor-allele count vector (the popcount of each
	// column), the caseLocalCounts a GDO outsources in Phase 1. Every write
	// keeps it exact.
	//gendpr:secret(aggregate)
	counts []int64
}

// NewMatrix allocates an n-by-l genotype matrix initialized to the major
// allele (all zeros).
func NewMatrix(n, l int) *Matrix {
	if n < 0 || l < 0 {
		return &Matrix{}
	}
	wpc := (n + wordBits - 1) / wordBits
	return &Matrix{
		n:      n,
		l:      l,
		wpc:    wpc,
		words:  make([]uint64, l*wpc),
		counts: make([]int64, l),
	}
}

// N returns the number of individuals (rows).
func (m *Matrix) N() int { return m.n }

// L returns the number of SNP positions (columns).
func (m *Matrix) L() int { return m.l }

// Get reports whether individual i carries the minor allele at SNP position l.
func (m *Matrix) Get(i, l int) bool {
	return m.GetBit(i, l) == 1
}

// GetBit returns the allele of individual i at SNP position l as a bare bit
// (1 encodes the minor allele). Unlike Get it involves no data-dependent
// branch, so enclave-resident loaders can fold genotype bits into buffers
// with pure mask arithmetic and keep their memory trace data-independent.
func (m *Matrix) GetBit(i, l int) byte {
	m.mustBound(i, l)
	w := m.words[l*m.wpc+i/wordBits]
	return byte(w >> (uint(i) % wordBits) & 1)
}

// Set stores the allele of individual i at SNP position l: true encodes the
// minor allele, false the major allele. The count at l moves by the change.
func (m *Matrix) Set(i, l int, minor bool) {
	m.mustBound(i, l)
	w := &m.words[l*m.wpc+i/wordBits]
	shift := uint(i) % wordBits
	var bit uint64
	if minor {
		bit = 1
	}
	old := *w >> shift & 1
	*w ^= (old ^ bit) << shift
	m.counts[l] += int64(bit) - int64(old)
}

func (m *Matrix) mustBound(i, l int) {
	if i < 0 || i >= m.n || l < 0 || l >= m.l {
		panic(fmt.Sprintf("genome: index (%d,%d) out of range for %dx%d matrix", i, l, m.n, m.l))
	}
}

// column returns the words holding SNP l's bits.
func (m *Matrix) column(l int) []uint64 {
	if l < 0 || l >= m.l {
		panic(fmt.Sprintf("genome: SNP %d out of range for %d columns", l, m.l))
	}
	return m.words[l*m.wpc : (l+1)*m.wpc]
}

// AppendColumn adds one SNP position after the last, every individual
// carrying the major allele there, and returns its index: a reader that
// meets the genotypes one SNP at a time (a VCF record) fills it with Set.
func (m *Matrix) AppendColumn() int {
	m.words = append(m.words, make([]uint64, m.wpc)...)
	m.counts = append(m.counts, 0)
	m.l++
	return m.l - 1
}

// AlleleCount returns the number of individuals carrying the minor allele at
// SNP position l.
func (m *Matrix) AlleleCount(l int) int64 {
	m.column(l) // the range check
	return m.counts[l]
}

// AlleleCounts returns the per-SNP minor-allele counts over all individuals.
// This is the caseLocalCounts vector each GDO outsources during Phase 1. The
// slice is the matrix's own vector and must be treated as read-only.
func (m *Matrix) AlleleCounts() []int64 { return m.counts }

// PairCount returns the number of individuals that carry the minor allele at
// both positions l1 and l2 (the C11 cell of the pairwise contingency table;
// the remaining cells follow from the single counts and N): the popcount of
// the two columns' intersection.
func (m *Matrix) PairCount(l1, l2 int) int64 {
	a, b := m.column(l1), m.column(l2)
	var c int
	for i := range a {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return int64(c)
}

// PairStats holds the pooled sufficient statistics for the correlation of a
// SNP pair over one dataset: the sums the GDO enclaves outsource during Phase
// 2 (mu_l, mu_l+1, mu_(l,l+1), mu_l^2, mu_(l+1)^2 in the paper's notation)
// plus the number of individuals they were computed over.
//
// For binary genotypes SumXX == SumX and SumYY == SumY, N is the member's
// population and SumX, SumY its per-SNP counts, so the federation's wire
// carries SumXY alone and the leader rebuilds the rest with
// PairStatsFromCounts. The fields stay separate because they are the
// paper's statistics and other encodings (e.g. 0/1/2 genotype dosage) would
// not collapse.
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
	xy := m.PairCount(l1, l2)
	return PairStatsFromCounts(int64(m.n), m.counts[l1], m.counts[l2], xy)
}

// PairStatsFromCounts assembles pair statistics from already-known
// minor-allele counts (x at the first SNP, y at the second, xy at both) over
// n binary genotypes.
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

// Gather returns the packed words of the given columns, in the given order:
// column cols[j] occupies words [j*wpc, (j+1)*wpc) of the result, wpc =
// (N()+63)/64, row i at bit i of that span — the layout lrtest.BitMatrix
// stores, so a Phase-3 pattern over cols is this copy and nothing else. Bits
// N()..64·wpc of every span are zero, as in the matrix. The result is freshly
// allocated and owned by the caller.
func (m *Matrix) Gather(cols []int) ([]uint64, error) {
	out := make([]uint64, len(cols)*m.wpc)
	for j, l := range cols {
		if l < 0 || l >= m.l {
			return nil, fmt.Errorf("%w: gathered SNP outside the matrix's %d columns", ErrIndexOutOfRange, m.l)
		}
		copy(out[j*m.wpc:(j+1)*m.wpc], m.words[l*m.wpc:(l+1)*m.wpc])
	}
	return out, nil
}

// ColumnSpans is Gather without the copy: it returns the matrix's own word
// buffer and, for each of cols, the index in it of that column's first word,
// so column cols[j] is words[offs[j]:offs[j]+(N()+63)/64] in Gather's layout.
// The words are shared, not copied: the caller must only read them, and
// only while the matrix is not written.
func (m *Matrix) ColumnSpans(cols []int) (words []uint64, offs []int, err error) {
	offs = make([]int, len(cols))
	for j, l := range cols {
		if l < 0 || l >= m.l {
			return nil, nil, fmt.Errorf("%w: SNP outside the matrix's %d columns", ErrIndexOutOfRange, m.l)
		}
		offs[j] = l * m.wpc
	}
	return m.words, offs, nil
}

// SelectColumns returns a new matrix restricted to the given SNP positions,
// in the given order. It is used to project a dataset onto a retained SNP
// subset (L', L”) between protocol phases.
func (m *Matrix) SelectColumns(cols []int) *Matrix {
	words, err := m.Gather(cols)
	if err != nil {
		panic(err)
	}
	out := &Matrix{n: m.n, l: len(cols), wpc: m.wpc, words: words, counts: make([]int64, len(cols))}
	for j, l := range cols {
		out.counts[j] = m.counts[l]
	}
	return out
}

// SelectRows returns a new matrix containing rows [lo, hi).
func (m *Matrix) SelectRows(lo, hi int) *Matrix {
	if lo < 0 || hi > m.n || lo > hi {
		panic(fmt.Sprintf("genome: row range [%d,%d) out of range for %d rows", lo, hi, m.n))
	}
	out := NewMatrix(hi-lo, m.l)
	shift := uint(lo) % wordBits
	for l := range out.counts {
		dst, src := out.column(l), m.column(l)[lo/wordBits:]
		for w := range dst {
			v := src[w] >> shift
			if w+1 < len(src) {
				// A shift by 64 yields 0 in Go: an aligned lo takes none
				// of the next word.
				v |= src[w+1] << (wordBits - shift)
			}
			dst[w] = v
		}
		if tail := uint(hi-lo) % wordBits; tail != 0 {
			dst[len(dst)-1] &= 1<<tail - 1
		}
		for _, v := range dst {
			out.counts[l] += int64(bits.OnesCount64(v))
		}
	}
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
	for c := range out.counts {
		dst, at := out.column(c), 0
		for _, m := range ms {
			orAt(dst, at, m.column(c))
			out.counts[c] += m.counts[c]
			at += m.n
		}
	}
	return out, nil
}

// orAt ORs the column words src into dst from bit d on. The bits of src
// past its rows are zero, so they set nothing.
func orAt(dst []uint64, d int, src []uint64) {
	dst = dst[d/wordBits:]
	shift := uint(d) % wordBits
	var carry uint64 // the bits of the previous word that spill into this one
	for w, v := range src {
		dst[w] |= v<<shift | carry
		carry = v >> (wordBits - shift) // 0 when d is aligned
	}
	if carry != 0 {
		dst[len(src)] |= carry
	}
}

// Equal reports whether two matrices have identical shape and genotypes.
func (m *Matrix) Equal(o *Matrix) bool {
	return m.n == o.n && m.l == o.l && slices.Equal(m.words, o.words)
}

// SizeBytes returns the in-memory footprint of the genotype words — each
// column padded to whole words — the quantity enclave memory accounting
// charges for holding the matrix.
func (m *Matrix) SizeBytes() int64 {
	return int64(len(m.words)) * 8
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{n: m.n, l: m.l, wpc: m.wpc, words: slices.Clone(m.words), counts: slices.Clone(m.counts)}
}

// Transpose returns m, which is column-major already. It remains only for
// the benchmark's genome.transpose_s probe and goes when that probe does.
func (m *Matrix) Transpose() *Matrix { return m }

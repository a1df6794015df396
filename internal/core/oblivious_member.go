package core

import (
	"fmt"
	"math/bits"

	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
	"gendpr/internal/oram"
)

// ObliviousMember is a Provider whose genotype columns live in a Path ORAM:
// when the protocol asks for a specific SNP's counts, a pair's statistics,
// or an LR-matrix over the retained subset, the member enclave's physical
// memory trace shows only random root-to-leaf tree paths — an observer of
// the untrusted host cannot tell which SNPs survived each phase. This is the
// data-oblivious member-side processing the paper defers to future work.
type ObliviousMember struct {
	n, l      int
	rowBytes  int
	store     *oram.Store
	caseCount int64
}

var _ Provider = (*ObliviousMember)(nil)

// NewObliviousMember loads a genotype shard into an ORAM store, one block
// per SNP column. The rng drives ORAM leaf remapping; production code must
// pass a crypto-backed source (internal/crand.Source) so the host cannot
// predict leaf assignments, while tests pass a seeded deterministic source.
func NewObliviousMember(shard *genome.Matrix, rng oram.Rand) (*ObliviousMember, error) {
	if shard == nil {
		return nil, fmt.Errorf("core: oblivious member needs a genotype shard")
	}
	if shard.L() == 0 {
		return nil, fmt.Errorf("core: oblivious member needs at least one SNP column")
	}
	rowBytes := (shard.N() + 7) / 8
	if rowBytes == 0 {
		rowBytes = 1
	}
	store, err := oram.NewStore(shard.L(), rowBytes, rng)
	if err != nil {
		return nil, fmt.Errorf("core: oblivious member: %w", err)
	}
	buf := make([]byte, rowBytes)
	for l := 0; l < shard.L(); l++ {
		for i := range buf {
			buf[i] = 0
		}
		// Fold each genotype bit in with mask arithmetic: a conditional
		// store here would make the write trace depend on allele values,
		// which is exactly what routing columns through the ORAM hides.
		for i := 0; i < shard.N(); i++ {
			buf[i/8] |= shard.GetBit(i, l) << (uint(i) % 8)
		}
		if err := store.Put(l, buf); err != nil {
			return nil, fmt.Errorf("core: oblivious member column %d: %w", l, err)
		}
	}
	return &ObliviousMember{
		n:         shard.N(),
		l:         shard.L(),
		rowBytes:  rowBytes,
		store:     store,
		caseCount: int64(shard.N()),
	}, nil
}

// column fetches one SNP column's bitset through the ORAM.
func (m *ObliviousMember) column(l int) ([]byte, error) {
	if l < 0 || l >= m.l {
		return nil, fmt.Errorf("core: SNP %d out of range for %d columns", l, m.l)
	}
	return m.store.Get(l)
}

func popcount(bs []byte) int64 {
	var c int64
	for _, b := range bs {
		c += int64(bits.OnesCount8(b))
	}
	return c
}

// Counts implements Provider: every column is touched exactly once, so the
// scan itself is uniform.
func (m *ObliviousMember) Counts() ([]int64, error) {
	out := make([]int64, m.l)
	for l := 0; l < m.l; l++ {
		col, err := m.column(l)
		if err != nil {
			return nil, err
		}
		out[l] = popcount(col)
	}
	return out, nil
}

// CaseN implements Provider.
func (m *ObliviousMember) CaseN() (int64, error) { return m.caseCount, nil }

// PairStats implements Provider via two ORAM accesses.
func (m *ObliviousMember) PairStats(a, b int) (genome.PairStats, error) {
	colA, err := m.column(a)
	if err != nil {
		return genome.PairStats{}, err
	}
	colB, err := m.column(b)
	if err != nil {
		return genome.PairStats{}, err
	}
	var both int64
	for i := range colA {
		both += int64(bits.OnesCount8(colA[i] & colB[i]))
	}
	x := popcount(colA)
	y := popcount(colB)
	return genome.PairStats{
		N:     m.caseCount,
		SumX:  x,
		SumY:  y,
		SumXY: both,
		SumXX: x,
		SumYY: y,
	}, nil
}

// PairStatsBatch implements Provider: PairStats pair by pair, two ORAM
// accesses each, in request order.
func (m *ObliviousMember) PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error) {
	return statsPerPair(pairs, m.PairStats)
}

// LRMatrix implements Provider: the pattern over cols, skinned through the
// frequencies' log ratios (PatternLRMatrix).
func (m *ObliviousMember) LRMatrix(cols []int, caseFreq, refFreq []float64) (*lrtest.BitMatrix, error) {
	return PatternLRMatrix(m, cols, caseFreq, refFreq)
}

// LRPattern implements Provider: the retained columns are fetched through
// the ORAM, so which SNPs survived to Phase 3 stays hidden from the host. Each
// ORAM block is already the column's genotype bitset, so it packs into the
// pattern verbatim — no per-cell decode and no dense intermediate.
func (m *ObliviousMember) LRPattern(cols []int) (*lrtest.BitMatrix, error) {
	if err := checkPatternRequest(m.l, cols); err != nil {
		return nil, err
	}
	zero := make([]float64, len(cols))
	return lrtest.BuildBitFromColumnBytes(m.n, lrtest.LogRatios{Minor: zero, Major: zero}, func(j int) ([]byte, error) {
		return m.column(cols[j])
	})
}

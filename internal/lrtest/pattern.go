package lrtest

import (
	"errors"
	"fmt"
	"math"
)

// This file implements genotype bit-patterns: BitMatrix values whose cell
// bits carry genotype orientation (a set bit means the minor allele) and
// whose representatives are all zero. A pattern is frequency-independent —
// the cell bits of a member's LR-matrix depend only on its genotypes and the
// requested columns, never on the broadcast frequency vectors — so the
// collusion driver fetches each member's pattern once per Phase 3 and
// derives every combination's LR-matrix from it with Reskin, instead of
// asking the member to rebuild (and re-ship) a matrix per combination.

// BuildBitPattern packs a genotype matrix's cells into a bit-pattern over
// all of its columns: the bits of BuildBit, with zero representatives.
// Reskin turns the pattern into a scoreable LR-matrix for any frequency
// vector.
func BuildBitPattern(g Genotypes) (*BitMatrix, error) {
	zero := make([]float64, g.L())
	return BuildBit(g, LogRatios{Minor: zero, Major: zero})
}

// IsPattern reports whether every representative is exactly zero — the
// invariant distinguishing a genotype bit-pattern from a skinned LR-matrix.
// The check is on the bit representation, so negative zero (which no pattern
// constructor produces) does not count.
func (m *BitMatrix) IsPattern() bool {
	for _, v := range m.zero {
		if math.Float64bits(v) != 0 {
			return false
		}
	}
	for _, v := range m.one {
		if math.Float64bits(v) != 0 {
			return false
		}
	}
	return true
}

// PatternStack maintains the row-wise concatenation of genotype bit-patterns
// for one evaluation chain: the merged per-individual matrix of the current
// presumed-honest combination. A revolving-door step is one Remove (the
// member leaving the combination) and one Push (the member entering) —
// column-local bit splices touching only the rows at and above the removed
// block — instead of a per-member rebuild and full MergeBits.
//
// Row order inside the stack is whatever the pushes produced, NOT member
// order: removing a middle block slides later blocks down, and the incoming
// member appends at the tail. That is sound because every Phase 3 consumer
// of a c > 0 combination — per-individual scores, the exact k-th order
// statistic threshold, the power count — is invariant under row permutation
// of the case matrix (see DESIGN.md); only the full-membership combination's
// discriminability order is row-order sensitive, and that one is built in
// canonical member order outside the stack.
type PatternStack struct {
	cols, wpc int
	rows      int
	bits      []uint64 // column-major, capRows capacity per column
	capRows   int
	blocks    []patternBlock
	zero, one []float64 // all-zero representatives for Matrix views
}

type patternBlock struct {
	id    int // caller's member index
	start int // first row of the block
	rows  int
}

// NewPatternStack sizes a stack for up to capRows total rows across cols
// columns.
func NewPatternStack(capRows, cols int) *PatternStack {
	if capRows < 0 || cols < 0 {
		capRows, cols = 0, 0
	}
	wpc := (capRows + 63) / 64
	return &PatternStack{
		cols:    cols,
		wpc:     wpc,
		capRows: capRows,
		bits:    make([]uint64, cols*wpc),
		zero:    make([]float64, cols),
		one:     make([]float64, cols),
	}
}

// Rows returns the current number of stacked rows.
func (s *PatternStack) Rows() int { return s.rows }

// Members returns the ids of the currently stacked blocks, in stack order.
func (s *PatternStack) Members() []int {
	ids := make([]int, len(s.blocks))
	for i, b := range s.blocks {
		ids[i] = b.id
	}
	return ids
}

// Reset empties the stack, clearing every used bit.
func (s *PatternStack) Reset() {
	if s.rows > 0 {
		for j := 0; j < s.cols; j++ {
			span := s.bits[j*s.wpc : (j+1)*s.wpc]
			clearRange(span, 0, s.rows)
		}
	}
	s.rows = 0
	s.blocks = s.blocks[:0]
}

// Push appends a member's pattern as the stack's new tail block.
func (s *PatternStack) Push(id int, part *BitMatrix) error {
	if part.cols != s.cols {
		return fmt.Errorf("%w: pattern has %d columns, stack %d", ErrShapeMismatch, part.cols, s.cols)
	}
	if s.rows+part.rows > s.capRows {
		return fmt.Errorf("lrtest: pattern stack overflow: pushed pattern exceeds row capacity")
	}
	for _, b := range s.blocks {
		if b.id == id {
			return fmt.Errorf("lrtest: pattern stack already holds member %d", id)
		}
	}
	if part.rows > 0 {
		for j := 0; j < s.cols; j++ {
			span := s.bits[j*s.wpc : (j+1)*s.wpc]
			spliceWords(span, s.rows, part.bits[j*part.wpc:(j+1)*part.wpc], part.rows, false)
		}
	}
	s.blocks = append(s.blocks, patternBlock{id: id, start: s.rows, rows: part.rows})
	s.rows += part.rows
	return nil
}

// Remove splices the block pushed under id out of the stack, sliding later
// blocks down and clearing the vacated tail rows.
func (s *PatternStack) Remove(id int) error {
	at := -1
	for i, b := range s.blocks {
		if b.id == id {
			at = i
			break
		}
	}
	if at < 0 {
		return fmt.Errorf("lrtest: pattern stack holds no member %d", id)
	}
	blk := s.blocks[at]
	tail := s.rows - (blk.start + blk.rows) // rows above the removed block
	if blk.rows > 0 {
		for j := 0; j < s.cols; j++ {
			span := s.bits[j*s.wpc : (j+1)*s.wpc]
			if tail > 0 {
				shiftDown(span, blk.start, blk.start+blk.rows, tail)
			}
			clearRange(span, blk.start+tail, blk.rows)
		}
	}
	s.blocks = append(s.blocks[:at], s.blocks[at+1:]...)
	for i := at; i < len(s.blocks); i++ {
		s.blocks[i].start -= blk.rows
	}
	s.rows -= blk.rows
	return nil
}

// Matrix returns the stacked rows as a genotype bit-pattern. The view shares
// the stack's bit storage: it is valid until the next Push/Remove/Reset, and
// matrices reskinned from it share the same lifetime. The view's words-per-
// column stride is the stack's capacity stride; all kernel consumers iterate
// rows through the stride, so the padding words are never read.
func (s *PatternStack) Matrix() *BitMatrix {
	return &BitMatrix{rows: s.rows, cols: s.cols, wpc: s.wpc, zero: s.zero, one: s.one, bits: s.bits}
}

// shiftDown moves n bits of span from srcOff down to dstOff (dstOff <
// srcOff), leaving the source tail bits unchanged for the caller to clear.
func shiftDown(span []uint64, dstOff, srcOff, n int) {
	for n > 0 {
		sw, ss := srcOff>>6, uint(srcOff)&63
		take := 64 - int(ss)
		if take > n {
			take = n
		}
		v := (span[sw] >> ss) & ones(take)
		dw, ds := dstOff>>6, uint(dstOff)&63
		// Clear the destination bits, then OR the chunk in (may straddle two
		// words).
		lowTake := 64 - int(ds)
		if lowTake > take {
			lowTake = take
		}
		span[dw] = span[dw]&^(ones(lowTake)<<ds) | (v&ones(lowTake))<<ds
		if take > lowTake {
			rest := take - lowTake
			span[dw+1] = span[dw+1]&^ones(rest) | v>>uint(lowTake)
		}
		srcOff += take
		dstOff += take
		n -= take
	}
}

// clearRange zeroes n bits of span starting at bit offset off.
func clearRange(span []uint64, off, n int) {
	for n > 0 {
		w, sh := off>>6, uint(off)&63
		take := 64 - int(sh)
		if take > n {
			take = n
		}
		span[w] &^= ones(take) << sh
		off += take
		n -= take
	}
}

// --- pattern wire codec ---

// wirePatternTag identifies the orientation-preserving pattern encoding. The
// compact LR-matrix codec (EncodeWire) is value-oriented: it re-derives each
// column's bit meaning from the representatives, and a pattern's
// representatives are all equal (zero), which that codec would collapse to a
// constant column and drop the genotype bits. Patterns therefore ship under
// their own tag with the column-major words verbatim.
const wirePatternTag = 3

// EncodePatternWire serializes a genotype bit-pattern: tag, rows, cols, then
// each column's packed words. Representatives are not transmitted — they are
// zero by the pattern invariant, and the receiving leader derives real
// representatives per combination via Reskin.
func (m *BitMatrix) EncodePatternWire() []byte {
	buf := make([]byte, 0, 17+8*len(m.bits))
	buf = append(buf, wirePatternTag)
	var tmp [8]byte
	appendU64 := func(v uint64) {
		putUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	appendU64(uint64(m.rows))
	appendU64(uint64(m.cols))
	for _, w := range m.bits {
		appendU64(w)
	}
	return buf
}

// DecodePatternWire decodes an EncodePatternWire payload back into a
// genotype bit-pattern, validating the shape and masking column tail bits so
// the column invariant holds regardless of the sender. It takes the column
// count from the payload, and a zero-row payload can state any count for 17
// bytes, so it is only for payloads the caller encoded itself; a reply from a
// peer goes through DecodePatternWireCols.
func DecodePatternWire(b []byte) (*BitMatrix, error) { return decodePattern(b, -1) }

// DecodePatternWireCols is DecodePatternWire for a reply to a request of cols
// columns: a payload stating any other count is rejected before anything is
// allocated for it.
func DecodePatternWireCols(b []byte, cols int) (*BitMatrix, error) {
	if cols < 0 {
		return nil, fmt.Errorf("lrtest: negative pattern column count %d", cols)
	}
	return decodePattern(b, cols)
}

// decodePattern decodes a pattern payload; a negative wantCols takes the
// payload's column count.
func decodePattern(b []byte, wantCols int) (*BitMatrix, error) {
	if len(b) == 0 {
		return nil, errors.New("lrtest: empty pattern encoding")
	}
	if b[0] != wirePatternTag {
		return nil, fmt.Errorf("lrtest: wire tag %d is not a pattern", b[0])
	}
	b = b[1:]
	if len(b) < 16 {
		return nil, errors.New("lrtest: pattern encoding too short")
	}
	rows := int(getUint64(b[0:8]))
	cols := int(getUint64(b[8:16]))
	if rows < 0 || cols < 0 || rows > 1<<30 || cols > 1<<30 {
		return nil, errors.New("lrtest: pattern encoding has implausible shape")
	}
	if wantCols >= 0 && cols != wantCols {
		return nil, fmt.Errorf("lrtest: pattern encoding has %d columns, want %d", cols, wantCols)
	}
	// Size check before allocating: the stated shape must match the payload.
	want := 16 + 8*cols*((rows+63)/64)
	if len(b) != want {
		return nil, fmt.Errorf("lrtest: pattern encoding has %d bytes, want %d", len(b)+1, want+1)
	}
	m := NewBitMatrix(rows, cols)
	for i := range m.bits {
		m.bits[i] = getUint64(b[16+8*i : 24+8*i])
	}
	if tail := rows & 63; tail != 0 && m.wpc > 0 {
		for j := 0; j < cols; j++ {
			m.bits[(j+1)*m.wpc-1] &= ones(tail)
		}
	}
	return m, nil
}

// ConcatBitPatterns concatenates genotype bit-patterns row-wise in argument
// order, preserving orientation — unlike MergeBits, whose representative
// normalization is undefined on patterns (their zero and one representatives
// are equal). The result has the canonical words-per-column stride, so it is
// safe to feed to row-order-sensitive consumers like
// DiscriminabilityOrderBit.
func ConcatBitPatterns(parts ...*BitMatrix) (*BitMatrix, error) {
	cols, rows := 0, 0
	if len(parts) > 0 {
		cols = parts[0].cols
	}
	for _, p := range parts {
		if p.cols != cols {
			return nil, fmt.Errorf("%w: %d vs %d columns", ErrShapeMismatch, p.cols, cols)
		}
		rows += p.rows
	}
	out := NewBitMatrix(rows, cols)
	off := 0
	for _, p := range parts {
		if p.rows == 0 {
			continue
		}
		for j := 0; j < cols; j++ {
			spliceWords(out.bits[j*out.wpc:(j+1)*out.wpc], off, p.bits[j*p.wpc:(j+1)*p.wpc], p.rows, false)
		}
		off += p.rows
	}
	return out, nil
}

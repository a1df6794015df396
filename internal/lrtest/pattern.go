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
// collusion driver fetches each member's pattern once per Phase 3 and scores
// every combination over the patterns where they lie, decoded through that
// combination's log ratios (SelectSafeParts, DiscriminabilityOrderParts),
// instead of asking the member to rebuild (and re-ship) a matrix per
// combination or copying the patterns into one.

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

// --- pattern wire codec ---

// wirePatternTag identifies the pattern encoding, the one Phase-3 reply a
// member ships: the column-major words verbatim, so the bits keep their
// genotype orientation. Tags 1 and 2 were LR-matrix encodings that carried
// representatives; nothing writes them, and the decoder rejects them as
// unknown.
const wirePatternTag = 3

// EncodePatternWire serializes a genotype bit-pattern: tag, rows, cols, then
// each column's packed words. Representatives are not transmitted — they are
// zero by the pattern invariant, and the receiving leader derives real
// representatives per combination via Reskin.
func (m *BitMatrix) EncodePatternWire() []byte {
	buf := make([]byte, 0, 17+8*m.cols*m.wpc)
	buf = append(buf, wirePatternTag)
	var tmp [8]byte
	appendU64 := func(v uint64) {
		putUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	appendU64(uint64(m.rows))
	appendU64(uint64(m.cols))
	for j := 0; j < m.cols; j++ {
		for _, w := range m.column(j) {
			appendU64(w)
		}
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

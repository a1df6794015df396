package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
	"gendpr/internal/wire"
)

// ErrEquivocation marks a member that answered the same query with two
// different payloads — to the original delivery and to a retry, a resumed
// leader, or an audit probe. Honest members are deterministic over a fixed
// cohort, so divergent answers are direct evidence of a Byzantine member (or
// of storage corruption on its side, which must be treated the same way at
// the trust boundary). Like ErrInvalidPayload it is never retried; unlike a
// crash fault the member is permanently barred from rejoining the run.
var ErrEquivocation = errors.New("member equivocated")

// Blame kinds recorded in Report.Blamed and the checkpoint stream.
const (
	// BlameEquivocation: the member answered one query two different ways.
	BlameEquivocation = "equivocation"
	// BlameInvalidPayload: a contribution failed trust-boundary validation.
	BlameInvalidPayload = "invalid-payload"
)

// Blame is one structured misbehavior attribution: which member, during which
// phase, answering which query, and what kind of evidence. For equivocation
// the two conflicting payload digests are preserved so the accusation is
// checkable after the fact; digests are one-way, so the record discloses that
// the answers differed without disclosing the answers.
type Blame struct {
	// Member names the blamed member (its provider name when the run has
	// names, otherwise its original index formatted by the driver).
	Member string
	// Phase is the protocol phase the evidence was collected in.
	Phase string
	// Query identifies the repeated query, or restates the violated
	// invariant for invalid-payload blame.
	Query string
	// Kind is BlameEquivocation or BlameInvalidPayload.
	Kind string
	// Prior and Observed are the SHA-256 digests of the two conflicting
	// payloads (equivocation only; empty for invalid-payload blame).
	Prior, Observed []byte
}

// EquivocationError carries the evidence of one equivocation: the phase, the
// repeated query, and the digests of the two conflicting payloads. The
// message names the broken invariant only — digests and payload values stay
// out of the error string, which travels to logs.
type EquivocationError struct {
	Phase string
	Query string
	// Prior is the digest of the answer recorded first; Observed the digest
	// of the conflicting one.
	Prior, Observed []byte
}

// Error implements error without exposing either digest.
func (e *EquivocationError) Error() string {
	return fmt.Sprintf("%v: query %q answered differently across deliveries in %s", ErrEquivocation, e.Query, e.Phase)
}

// Unwrap lets errors.Is(err, ErrEquivocation) classify the failure.
func (e *EquivocationError) Unwrap() error { return ErrEquivocation }

// DigestSummary computes the canonical SHA-256 digest of a member's Phase 1
// summary. The pre-image is the federation wire encoding of a counts reply
// (population, the vector's length, then the counts packed at
// wire.Width(population)), so the digest of a checkpointed or cached summary
// compares byte-for-byte against the digest of a live reply payload — the
// key the leader's equivocation ledger is built on. A summary no counts
// reply can carry (a negative population, or a count outside its packed
// width) has no digest: it is an invalid payload.
//
//gendpr:declassifier(release): a SHA-256 digest is preimage-resistant commitment evidence — it identifies WHICH answer a member gave without revealing the answer, and blame records must be publishable
func DigestSummary(counts []int64, caseN int64) ([sha256.Size]byte, error) {
	width := wire.Width(caseN)
	e := wire.NewEncoder(16 + wire.PackedLen(len(counts), width))
	e.Int64(caseN)
	e.Uint64(uint64(len(counts)))
	e.Packed(counts, width)
	if e.Err() != nil {
		return [sha256.Size]byte{}, fmt.Errorf("%w: summary outside its wire form", ErrInvalidPayload)
	}
	return sha256.Sum256(e.Bytes()), nil
}

// SummaryAuditor is implemented by providers that can re-fetch the member's
// Phase 1 summary from the authoritative source, bypassing every cache. The
// resumed or rejoining path uses it to challenge a member to stand by the
// summary it reported earlier: an honest member reproduces it bit-for-bit, an
// equivocator is caught by the digest comparison.
type SummaryAuditor interface {
	AuditSummary() (counts []int64, caseN int64, err error)
}

// RejoinableProvider is implemented by providers that can re-establish a
// member's session after the member was excluded — the federation's remote
// provider redials and re-attests. A successful Rejoin only restores
// connectivity; re-admission additionally requires the summary audit to pass.
type RejoinableProvider interface {
	Rejoin() error
}

// errAuditUnsupported marks a provider chain with no SummaryAuditor at the
// bottom (the leader's own LocalMember shard, or plain in-process providers).
// Audit passes skip such members: they are inside the leader's trust domain.
var errAuditUnsupported = errors.New("core: provider does not support summary audits")

// errRejoinUnsupported marks a provider chain that cannot re-establish a
// session; such members stay excluded once dropped.
var errRejoinUnsupported = errors.New("core: provider does not support rejoining")

// ByzantineMode selects which semantic fault NewByzantineProvider injects.
// Every mode produces a payload that is well-formed at the codec layer — the
// faults are semantic, detectable only by the leader's trust-boundary
// validation, cross-payload plausibility checks, or the equivocation ledger.
type ByzantineMode int

const (
	// ByzantineCountsOverflow reports a count exceeding the member's own
	// population. Caught immediately by validateCounts.
	ByzantineCountsOverflow ByzantineMode = iota
	// ByzantinePairSkew perturbs a pair-statistics marginal while keeping
	// every single-payload invariant intact. Caught only by the
	// cross-payload consistency check against the member's reported counts.
	ByzantinePairSkew
	// ByzantinePatternFlip flips one genotype bit in the Phase 3 pattern.
	// Caught only by the column popcount check against the reported counts.
	ByzantinePatternFlip
	// ByzantineEquivocate answers summary queries honestly until the
	// trigger, then reports a different — but internally valid — summary.
	// Caught only by the equivocation ledger on a retry or audit probe.
	ByzantineEquivocate
	// ByzantineJointCount reports a pair's joint count outside the bounds
	// its marginals allow, [max(0, x+y−n), min(x, y)], yet inside the
	// count's packed width. Over the wire the joint count is all a Phase-2
	// reply carries (ByzantinePairSkew's marginals never leave the member),
	// so this is the pair lie left to a member; validatePairStats catches it.
	ByzantineJointCount
)

// String names the mode for logs and soak-failure seeds.
func (m ByzantineMode) String() string {
	switch m {
	case ByzantineCountsOverflow:
		return "counts-overflow"
	case ByzantinePairSkew:
		return "pair-skew"
	case ByzantinePatternFlip:
		return "pattern-flip"
	case ByzantineEquivocate:
		return "equivocate"
	case ByzantineJointCount:
		return "joint-count"
	default:
		return fmt.Sprintf("byzantine-mode(%d)", int(m))
	}
}

// ByzantineProvider wraps a Provider and perturbs its answers from the Nth
// call of the targeted method onward — the semantic twin of the transport
// layer's FaultCorrupt, injecting faults that survive authentication because
// the member itself signs them. The perturbation persists once triggered:
// a Byzantine member that reverted to honesty after one bad answer would
// evade audit probes, and the detection machinery must not depend on the
// adversary being that cooperative.
type ByzantineProvider struct {
	inner Provider
	mode  ByzantineMode
	n     int

	mu    sync.Mutex
	calls map[string]int
}

// NewByzantineProvider wraps inner so the mode's fault fires from the nth
// call (1-based) of the targeted method onward. n < 1 is treated as 1.
func NewByzantineProvider(inner Provider, mode ByzantineMode, n int) *ByzantineProvider {
	if n < 1 {
		n = 1
	}
	return &ByzantineProvider{inner: inner, mode: mode, n: n, calls: make(map[string]int)}
}

// triggered counts one call of method and reports whether the fault is live.
func (b *ByzantineProvider) triggered(method string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls[method]++
	return b.calls[method] >= b.n
}

// Counts implements Provider, perturbing the summary for the overflow and
// equivocation modes.
func (b *ByzantineProvider) Counts() ([]int64, error) {
	counts, err := b.inner.Counts()
	if err != nil {
		return nil, err
	}
	switch b.mode {
	case ByzantineCountsOverflow:
		if b.triggered("counts") {
			caseN, err := b.inner.CaseN()
			if err != nil {
				return nil, err
			}
			out := append([]int64(nil), counts...)
			if len(out) > 0 {
				out[0] = caseN + 1
			}
			return out, nil
		}
	case ByzantineEquivocate:
		if b.triggered("counts") {
			caseN, err := b.inner.CaseN()
			if err != nil {
				return nil, err
			}
			return equivocateCounts(counts, caseN), nil
		}
	}
	return counts, nil
}

// equivocateCounts returns a perturbed copy that still satisfies every
// single-payload invariant (0 <= count <= caseN), so only the digest ledger
// can tell it apart from an honest answer.
func equivocateCounts(counts []int64, caseN int64) []int64 {
	out := append([]int64(nil), counts...)
	for i, c := range out {
		if c > 0 {
			out[i] = c - 1
			return out
		}
		if c < caseN {
			out[i] = c + 1
			return out
		}
	}
	return out
}

// CaseN implements Provider.
func (b *ByzantineProvider) CaseN() (int64, error) { return b.inner.CaseN() }

// PairStats implements Provider, perturbing a marginal in pair-skew mode
// and the joint count in joint-count mode.
func (b *ByzantineProvider) PairStats(a, c int) (genome.PairStats, error) {
	s, err := b.inner.PairStats(a, c)
	if err != nil {
		return genome.PairStats{}, err
	}
	switch {
	case b.mode == ByzantinePairSkew && b.triggered("pair"):
		return skewPairStats(s), nil
	case b.mode == ByzantineJointCount && b.triggered("pair"):
		return lieJointCount(s), nil
	}
	return s, nil
}

// lieJointCount moves the joint count just past its bounds: one above
// min(x, y), or, when that would exceed the population (x = y = n), one
// below the inclusion-exclusion floor n. Either value stays within n's
// packed width, so the lie is well-formed on the wire.
func lieJointCount(s genome.PairStats) genome.PairStats {
	if hi := min(s.SumX, s.SumY); hi < s.N {
		s.SumXY = hi + 1
	} else {
		s.SumXY = s.SumX + s.SumY - s.N - 1
	}
	return s
}

// PairStatsBatch implements Provider by routing every pair through
// PairStats, so the per-call trigger and the perturbation apply identically
// to a batch and to a single pair.
func (b *ByzantineProvider) PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error) {
	return statsPerPair(pairs, b.PairStats)
}

// skewPairStats nudges one marginal while preserving every invariant
// validatePairStats checks (squares track sums, joint count stays inside its
// bounds), so the fault is invisible without the member's own counts.
func skewPairStats(s genome.PairStats) genome.PairStats {
	switch {
	case s.SumX > s.SumXY:
		s.SumX--
	case s.SumX < s.N && s.SumX+s.SumY-s.N < s.SumXY:
		s.SumX++
	case s.SumY > s.SumXY:
		s.SumY--
	case s.SumY < s.N && s.SumX+s.SumY-s.N < s.SumXY:
		s.SumY++
	}
	s.SumXX, s.SumYY = s.SumX, s.SumY
	return s
}

// LRMatrix implements Provider, flipping one cell in pattern-flip mode. The
// inner provider builds a fresh matrix per call, so the mutation never aliases
// honest state.
func (b *ByzantineProvider) LRMatrix(cols []int, caseFreq, refFreq []float64) (*lrtest.BitMatrix, error) {
	m, err := b.inner.LRMatrix(cols, caseFreq, refFreq)
	if err != nil {
		return nil, err
	}
	if b.mode == ByzantinePatternFlip && b.triggered("lr") && m.Rows() > 0 && m.Cols() > 0 {
		m.FlipBit(0, 0)
	}
	return m, nil
}

// LRPattern implements Provider, flipping one cell in pattern-flip mode.
func (b *ByzantineProvider) LRPattern(cols []int) (*lrtest.BitMatrix, error) {
	m, err := b.inner.LRPattern(cols)
	if err != nil {
		return nil, err
	}
	if b.mode == ByzantinePatternFlip && b.triggered("lr") && m.Rows() > 0 && m.Cols() > 0 {
		m.FlipBit(0, 0)
	}
	return m, nil
}

// Rejoin forwards to the inner provider so an excluded Byzantine member can
// attempt re-admission — the rejoin audit is what must catch it.
func (b *ByzantineProvider) Rejoin() error {
	if rj, ok := b.inner.(RejoinableProvider); ok {
		return rj.Rejoin()
	}
	return errRejoinUnsupported
}

// AuditSummary forwards to the inner provider's auditor when present, and
// otherwise answers the audit itself via Counts/CaseN — through the Byzantine
// perturbation, so an equivocating wrapper is auditable in-process too.
func (b *ByzantineProvider) AuditSummary() ([]int64, int64, error) {
	if a, ok := b.inner.(SummaryAuditor); ok {
		if b.mode != ByzantineEquivocate {
			return a.AuditSummary()
		}
	}
	counts, err := b.Counts()
	if err != nil {
		return nil, 0, err
	}
	caseN, err := b.CaseN()
	if err != nil {
		return nil, 0, err
	}
	return counts, caseN, nil
}

var (
	_ Provider       = (*ByzantineProvider)(nil)
	_ SummaryAuditor = (*ByzantineProvider)(nil)
)

// Package federation is the GenDPR middleware proper: it runs the core
// assessment protocol across a federation of genome data owners connected by
// message transports. Every connection is bootstrapped with mutual remote
// attestation and carries only AES-256-GCM-protected intermediate results —
// raw genomes never leave a member's premises.
package federation

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"gendpr/internal/enclave"
	"gendpr/internal/enclave/attest"
	"gendpr/internal/genome"
	"gendpr/internal/transport"
	"gendpr/internal/wire"
)

// Message kinds exchanged between the leader and members.
const (
	// KindAttestOffer carries attestation handshake material (the only
	// plaintext message; its integrity is enforced by quote verification).
	KindAttestOffer uint16 = iota + 1
	// KindCountsRequest asks a member for its Phase 1 summary statistics.
	KindCountsRequest
	// KindCountsReply carries caseLocalCounts and the local population size.
	KindCountsReply
	// KindPairRequest asks for the Phase 2 correlation statistics of a pair.
	KindPairRequest
	// KindPairReply carries one PairStats contribution.
	KindPairReply
	// KindLRRequest broadcasts pooled frequencies and asks for the member's
	// local LR-matrix over the given columns (Phase 3).
	KindLRRequest
	// KindLRReply carries the serialized local LR-matrix.
	KindLRReply
	// KindResult broadcasts the final selection to every member.
	KindResult
	// KindError reports a member-side failure to the leader.
	KindError
	// KindShutdown ends the member's serving loop.
	KindShutdown
	// KindPairBatchRequest asks for many pair statistics in one round trip.
	KindPairBatchRequest
	// KindPairBatchReply carries the batched PairStats contributions.
	KindPairBatchReply
)

// CodeIdentity is the code measured into every GenDPR enclave in this build.
// Members only talk to peers attesting this exact measurement.
var CodeIdentity = []byte("gendpr-federation-enclave-v1")

// ExpectedMeasurement returns the measurement every federation member pins.
func ExpectedMeasurement() enclave.Measurement {
	return enclave.MeasurementOf(CodeIdentity)
}

// ErrProtocol is returned for messages that violate the protocol state
// machine (unexpected kind, malformed payload).
var ErrProtocol = errors.New("federation: protocol violation")

// --- Offer codec ---

func encodeOffer(o attest.Offer) []byte {
	e := wire.NewEncoder(256)
	e.Blob(o.Quote.Measurement[:])
	e.Blob(o.Quote.ReportData[:])
	e.Blob(o.Quote.Signature)
	e.Blob(o.ECDHPub)
	e.Blob(o.Nonce[:])
	return e.Bytes()
}

func decodeOffer(b []byte) (attest.Offer, error) {
	d := wire.NewDecoder(b)
	var o attest.Offer
	meas := d.Blob()
	rd := d.Blob()
	sig := d.Blob()
	pub := d.Blob()
	nonce := d.Blob()
	if err := d.Finish(); err != nil {
		return attest.Offer{}, fmt.Errorf("%w: offer: %v", ErrProtocol, err)
	}
	if len(meas) != len(o.Quote.Measurement) || len(rd) != len(o.Quote.ReportData) || len(nonce) != len(o.Nonce) {
		return attest.Offer{}, fmt.Errorf("%w: offer field sizes", ErrProtocol)
	}
	copy(o.Quote.Measurement[:], meas)
	copy(o.Quote.ReportData[:], rd)
	o.Quote.Signature = append([]byte(nil), sig...)
	o.ECDHPub = append([]byte(nil), pub...)
	copy(o.Nonce[:], nonce)
	return o, nil
}

// --- Counts codec ---

func encodeCounts(counts []int64, caseN int64) []byte {
	e := wire.NewEncoder(16 + 8*len(counts))
	e.Int64(caseN)
	e.Int64s(counts)
	return e.Bytes()
}

func decodeCounts(b []byte) ([]int64, int64, error) {
	d := wire.NewDecoder(b)
	n := d.Int64()
	counts := d.Int64s()
	if err := d.Finish(); err != nil {
		return nil, 0, fmt.Errorf("%w: counts: %v", ErrProtocol, err)
	}
	return counts, n, nil
}

// --- Pair codec ---

func encodePairRequest(a, b int) []byte {
	e := wire.NewEncoder(16)
	e.Int(a)
	e.Int(b)
	return e.Bytes()
}

func decodePairRequest(buf []byte) (a, b int, err error) {
	d := wire.NewDecoder(buf)
	a = d.Int()
	b = d.Int()
	if err := d.Finish(); err != nil {
		return 0, 0, fmt.Errorf("%w: pair request: %v", ErrProtocol, err)
	}
	return a, b, nil
}

func encodePairStats(s genome.PairStats) []byte {
	e := wire.NewEncoder(48)
	e.Int64(s.N)
	e.Int64(s.SumX)
	e.Int64(s.SumY)
	e.Int64(s.SumXY)
	e.Int64(s.SumXX)
	e.Int64(s.SumYY)
	return e.Bytes()
}

func decodePairStats(b []byte) (genome.PairStats, error) {
	d := wire.NewDecoder(b)
	s := genome.PairStats{
		N:     d.Int64(),
		SumX:  d.Int64(),
		SumY:  d.Int64(),
		SumXY: d.Int64(),
		SumXX: d.Int64(),
		SumYY: d.Int64(),
	}
	if err := d.Finish(); err != nil {
		return genome.PairStats{}, fmt.Errorf("%w: pair stats: %v", ErrProtocol, err)
	}
	return s, nil
}

// --- Pair batch codec ---

func encodePairBatchRequest(pairs [][2]int) []byte {
	e := wire.NewEncoder(8 + 16*len(pairs))
	e.Uint64(uint64(len(pairs)))
	for _, p := range pairs {
		e.Int(p[0])
		e.Int(p[1])
	}
	return e.Bytes()
}

func decodePairBatchRequest(b []byte) ([][2]int, error) {
	d := wire.NewDecoder(b)
	n := int(d.Uint64())
	// The count is the sender's claim: hold it against the bytes that
	// actually arrived (16 per pair) before allocating for it.
	if d.Err() != nil || n < 0 || n > d.Remaining()/16 {
		return nil, fmt.Errorf("%w: pair batch size", ErrProtocol)
	}
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i][0] = d.Int()
		pairs[i][1] = d.Int()
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: pair batch request: %v", ErrProtocol, err)
	}
	return pairs, nil
}

func encodePairBatchReply(stats []genome.PairStats) []byte {
	e := wire.NewEncoder(8 + 48*len(stats))
	e.Uint64(uint64(len(stats)))
	for _, s := range stats {
		e.Int64(s.N)
		e.Int64(s.SumX)
		e.Int64(s.SumY)
		e.Int64(s.SumXY)
		e.Int64(s.SumXX)
		e.Int64(s.SumYY)
	}
	return e.Bytes()
}

func decodePairBatchReply(b []byte) ([]genome.PairStats, error) {
	d := wire.NewDecoder(b)
	n := int(d.Uint64())
	// As in the request: 48 bytes per entry must be there before the make.
	if d.Err() != nil || n < 0 || n > d.Remaining()/48 {
		return nil, fmt.Errorf("%w: pair batch size", ErrProtocol)
	}
	stats := make([]genome.PairStats, n)
	for i := range stats {
		stats[i] = genome.PairStats{
			N:     d.Int64(),
			SumX:  d.Int64(),
			SumY:  d.Int64(),
			SumXY: d.Int64(),
			SumXX: d.Int64(),
			SumYY: d.Int64(),
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: pair batch reply: %v", ErrProtocol, err)
	}
	return stats, nil
}

// --- LR codec ---

func encodeLRRequest(cols []int, caseFreq, refFreq []float64) []byte {
	e := wire.NewEncoder(24 + 24*len(cols))
	e.Ints(cols)
	e.Float64s(caseFreq)
	e.Float64s(refFreq)
	return e.Bytes()
}

func decodeLRRequest(b []byte) (cols []int, caseFreq, refFreq []float64, err error) {
	d := wire.NewDecoder(b)
	cols = d.Ints()
	caseFreq = d.Float64s()
	refFreq = d.Float64s()
	if err := d.Finish(); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: LR request: %v", ErrProtocol, err)
	}
	return cols, caseFreq, refFreq, nil
}

// --- Result codec ---

func encodeResult(afterMAF, afterLD, safe []int) []byte {
	e := wire.NewEncoder(24 + 8*(len(afterMAF)+len(afterLD)+len(safe)))
	e.Ints(afterMAF)
	e.Ints(afterLD)
	e.Ints(safe)
	return e.Bytes()
}

func decodeResult(b []byte) (afterMAF, afterLD, safe []int, err error) {
	d := wire.NewDecoder(b)
	afterMAF = d.Ints()
	afterLD = d.Ints()
	safe = d.Ints()
	if err := d.Finish(); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: result: %v", ErrProtocol, err)
	}
	return afterMAF, afterLD, safe, nil
}

// attestConn performs the mutual-attestation handshake over a raw
// connection and returns the encrypted channel. sendFirst breaks the
// symmetry: the leader offers first, members answer. Each handshake send and
// receive must complete within timeout (zero waits forever), so a silent or
// stalled peer cannot wedge the attesting side, and cancelling ctx interrupts
// an in-flight step.
func attestConn(ctx context.Context, raw transport.Conn, authority *attest.Authority, enc *enclave.Enclave, sendFirst bool, timeout time.Duration) (*transport.SecureConn, error) {
	hs, err := attest.NewHandshake(authority, enc)
	if err != nil {
		return nil, fmt.Errorf("federation: handshake: %w", err)
	}
	send := func() error {
		//gendpr:allow(secretflow): the attestation offer is public handshake material (ECDH public key, nonce, measurement) and must travel before the secure channel exists
		return transport.SendContext(ctx, raw, transport.Message{Kind: KindAttestOffer, Payload: encodeOffer(hs.Offer())}, timeout)
	}
	recv := func() (attest.Offer, error) {
		m, err := transport.RecvContext(ctx, raw, timeout)
		if err != nil {
			return attest.Offer{}, fmt.Errorf("federation: handshake recv: %w", err)
		}
		if m.Kind != KindAttestOffer {
			return attest.Offer{}, fmt.Errorf("%w: expected attestation offer, got kind %d", ErrProtocol, m.Kind)
		}
		return decodeOffer(m.Payload)
	}

	var peer attest.Offer
	if sendFirst {
		if err := send(); err != nil {
			return nil, err
		}
		if peer, err = recv(); err != nil {
			return nil, err
		}
	} else {
		if peer, err = recv(); err != nil {
			return nil, err
		}
		if err := send(); err != nil {
			return nil, err
		}
	}
	key, err := hs.Complete(authority.PublicKey(), peer, ExpectedMeasurement())
	if err != nil {
		return nil, fmt.Errorf("federation: attestation: %w", err)
	}
	return transport.NewSecure(raw, key), nil
}

// hashNonces derives a deterministic leader index from the members'
// committed nonces (random leader election, Section 5.2): every party
// computes the same SHA-256 over the ordered nonce list.
func hashNonces(nonces [][]byte, g int) int {
	h := sha256.New()
	for _, n := range nonces {
		h.Write(n)
	}
	sum := h.Sum(nil)
	v := uint64(sum[0])<<56 | uint64(sum[1])<<48 | uint64(sum[2])<<40 | uint64(sum[3])<<32 |
		uint64(sum[4])<<24 | uint64(sum[5])<<16 | uint64(sum[6])<<8 | uint64(sum[7])
	return int(v % uint64(g))
}

// ElectLeader picks the leader index from the members' random contributions.
// It returns an error when any contribution is empty or g is invalid.
func ElectLeader(nonces [][]byte, g int) (int, error) {
	if g <= 0 {
		return 0, fmt.Errorf("federation: federation size %d invalid", g)
	}
	if len(nonces) != g {
		return 0, fmt.Errorf("federation: %d nonces for %d members", len(nonces), g)
	}
	for i, n := range nonces {
		if len(n) == 0 {
			return 0, fmt.Errorf("federation: member %d contributed an empty nonce", i)
		}
	}
	return hashNonces(nonces, g), nil
}

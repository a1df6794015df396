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
	"math"
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
	// A cold run never sends it: the leader's attestation offer names it, and
	// the member answers straight after its own offer.
	KindCountsRequest
	// KindCountsReply carries caseLocalCounts and the local population size.
	KindCountsReply
	// KindPairRequest once asked for one pair's joint count. Members no
	// longer serve it: a single pair travels as a batch of one.
	KindPairRequest
	// KindPairReply once carried one pair's joint count; nothing sends it.
	KindPairReply
	// KindLRRequest asks for the member's genotype pattern over the given
	// columns (Phase 3).
	KindLRRequest
	// KindLRReply carries the serialized genotype pattern.
	KindLRReply
	// KindResult broadcasts the final selection to every member and ends
	// its session.
	KindResult
	// KindError reports a member-side failure to the leader.
	KindError
	// KindShutdown once ended the member's serving loop; KindResult ends it
	// now, and nothing sends it.
	KindShutdown
	// KindPairBatchRequest asks for many pairs' joint counts in one round
	// trip.
	KindPairBatchRequest
	// KindPairBatchReply carries the batched joint counts.
	KindPairBatchReply
)

// CodeIdentity is the code measured into every GenDPR enclave in this build.
// Members only talk to peers attesting this exact measurement, so a peer
// speaking another message format is refused at attestation, before any
// frame of it is decoded: v1 shipped fixed-width counts, five sums per pair
// and int64 result lists; v2 sent two frequency vectors with each Phase-3
// request and served the one-pair kinds; v3 sent the summary request as its
// own message after the handshake and ended every session with a shutdown.
var CodeIdentity = []byte("gendpr-federation-enclave-v4")

// ExpectedMeasurement returns the measurement every federation member pins.
func ExpectedMeasurement() enclave.Measurement {
	return enclave.MeasurementOf(CodeIdentity)
}

// ErrProtocol is returned for messages that violate the protocol state
// machine (unexpected kind, malformed payload).
var ErrProtocol = errors.New("federation: protocol violation")

// --- Offer codec ---
//
// The leader's offer ends with the request kind it names (attest.Offer's
// Request, zero for none); a member's offer names nothing and has no such
// field. The decoder is told which side sent the offer.

func encodeOffer(o attest.Offer, leader bool) []byte {
	e := wire.NewEncoder(256)
	e.Blob(o.Quote.Measurement[:])
	e.Blob(o.Quote.ReportData[:])
	e.Blob(o.Quote.Signature)
	e.Blob(o.ECDHPub)
	e.Blob(o.Nonce[:])
	if leader {
		e.Uint64(uint64(o.Request))
	}
	return e.Bytes()
}

func decodeOffer(b []byte, leader bool) (attest.Offer, error) {
	d := wire.NewDecoder(b)
	var o attest.Offer
	meas := d.Blob()
	rd := d.Blob()
	sig := d.Blob()
	pub := d.Blob()
	nonce := d.Blob()
	var request uint64
	if leader {
		request = d.Uint64()
	}
	if err := d.Finish(); err != nil {
		return attest.Offer{}, fmt.Errorf("%w: offer: %v", ErrProtocol, err)
	}
	if len(meas) != len(o.Quote.Measurement) || len(rd) != len(o.Quote.ReportData) || len(nonce) != len(o.Nonce) {
		return attest.Offer{}, fmt.Errorf("%w: offer field sizes", ErrProtocol)
	}
	if request > math.MaxUint16 {
		return attest.Offer{}, fmt.Errorf("%w: offer names request kind %d", ErrProtocol, request)
	}
	copy(o.Quote.Measurement[:], meas)
	copy(o.Quote.ReportData[:], rd)
	o.Quote.Signature = append([]byte(nil), sig...)
	o.ECDHPub = append([]byte(nil), pub...)
	copy(o.Nonce[:], nonce)
	o.Request = uint16(request)
	return o, nil
}

// --- Counts codec ---
//
// The integer messages carry only what the receiver lacks, each value packed
// at a width fixed by public shape (wire.Width): a count of a member's n
// genomes in bits.Len(n) bits, a SNP index in bits.Len(L−1). So a payload's
// length follows from L, n and the pair count alone, never from the values.

// encodeCounts is a counts reply: the population n, the vector's length, and
// the counts packed at wire.Width(n). A count that width cannot carry (a
// negative one, or one of Width(n)+1 bits) is unencodable; core.DigestSummary
// hashes exactly these bytes.
func encodeCounts(counts []int64, caseN int64) ([]byte, error) {
	width := wire.Width(caseN)
	e := wire.NewEncoder(16 + wire.PackedLen(len(counts), width))
	e.Int64(caseN)
	e.Uint64(uint64(len(counts)))
	e.Packed(counts, width)
	if e.Err() != nil {
		return nil, fmt.Errorf("%w: counts reply: %w", ErrProtocol, wire.ErrUnencodable)
	}
	return e.Bytes(), nil
}

func decodeCounts(b []byte) ([]int64, int64, error) {
	d := wire.NewDecoder(b)
	n := d.Int64()
	l := d.Uint64()
	// The length is the sender's claim; Packed holds it against the bytes
	// that arrived before allocating.
	counts := d.Packed(int(min(l, 1<<62)), wire.Width(n))
	if err := d.Finish(); err != nil {
		return nil, 0, fmt.Errorf("%w: counts: %w", ErrProtocol, err)
	}
	return counts, n, nil
}

// --- Pair codecs ---
//
// Phase 2 ships the joint count Σxy alone. For 0/1 genotypes the other
// sufficient statistics of a pair (a, b) are the member's population and its
// Phase-1 counts at a and b, which the leader already holds, so it rebuilds
// them (genome.PairStatsFromCounts) instead of receiving them. A single pair
// is a batch of one.

// encodePairBatchRequest is the pair count followed by each pair's two SNP
// indices packed at wire.Width(l−1), for a member of l SNPs.
func encodePairBatchRequest(pairs [][2]int, l int) ([]byte, error) {
	width := wire.Width(int64(l) - 1)
	idx := make([]int64, 0, 2*len(pairs))
	for _, p := range pairs {
		if p[0] >= l || p[1] >= l {
			return nil, fmt.Errorf("%w: pair request: SNP index out of range for %d SNPs", ErrProtocol, l)
		}
		idx = append(idx, int64(p[0]), int64(p[1]))
	}
	e := wire.NewEncoder(8 + wire.PackedLen(len(idx), width))
	e.Uint64(uint64(len(pairs)))
	e.Packed(idx, width)
	if e.Err() != nil {
		return nil, fmt.Errorf("%w: pair request: %w", ErrProtocol, wire.ErrUnencodable)
	}
	return e.Bytes(), nil
}

func decodePairBatchRequest(b []byte, l int) ([][2]int, error) {
	d := wire.NewDecoder(b)
	n := d.Uint64()
	idx := d.Packed(2*int(min(n, 1<<40)), wire.Width(int64(l)-1))
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: pair batch request: %w", ErrProtocol, err)
	}
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{int(idx[2*i]), int(idx[2*i+1])}
		if pairs[i][0] >= l || pairs[i][1] >= l {
			return nil, fmt.Errorf("%w: pair batch request: SNP index out of range for %d SNPs", ErrProtocol, l)
		}
	}
	return pairs, nil
}

// encodePairBatchReply is the pair count followed by each pair's joint count
// Σxy packed at wire.Width(n), for a member of n genomes.
func encodePairBatchReply(stats []genome.PairStats, n int64) ([]byte, error) {
	xy := make([]int64, len(stats))
	for i, s := range stats {
		xy[i] = s.SumXY
	}
	width := wire.Width(n)
	e := wire.NewEncoder(8 + wire.PackedLen(len(xy), width))
	e.Uint64(uint64(len(xy)))
	e.Packed(xy, width)
	if e.Err() != nil {
		return nil, fmt.Errorf("%w: pair reply: %w", ErrProtocol, wire.ErrUnencodable)
	}
	return e.Bytes(), nil
}

// decodePairBatchReply returns the joint counts of a reply from a member of
// n genomes.
func decodePairBatchReply(b []byte, n int64) ([]int64, error) {
	d := wire.NewDecoder(b)
	count := d.Uint64()
	xy := d.Packed(int(min(count, 1<<62)), wire.Width(n))
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: pair batch reply: %w", ErrProtocol, err)
	}
	return xy, nil
}

// --- LR codec ---

// encodeLRRequest is a pattern request: the column list, int64 each.
func encodeLRRequest(cols []int) []byte {
	e := wire.NewEncoder(8 + 8*len(cols))
	e.Ints(cols)
	return e.Bytes()
}

func decodeLRRequest(b []byte) ([]int, error) {
	d := wire.NewDecoder(b)
	cols := d.Ints()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: LR request: %v", ErrProtocol, err)
	}
	return cols, nil
}

// --- Result codec ---

// encodeResult is L′, L″ and L_safe as three l-bit membership bitmaps, for a
// federation of l SNPs. Each list must be strictly ascending inside [0, l).
func encodeResult(afterMAF, afterLD, safe []int, l int) ([]byte, error) {
	e := wire.NewEncoder(3 * wire.PackedLen(l, 1))
	e.Bitmap(afterMAF, l)
	e.Bitmap(afterLD, l)
	e.Bitmap(safe, l)
	if e.Err() != nil {
		return nil, fmt.Errorf("%w: result: %w", ErrProtocol, wire.ErrUnencodable)
	}
	return e.Bytes(), nil
}

func decodeResult(b []byte, l int) (afterMAF, afterLD, safe []int, err error) {
	d := wire.NewDecoder(b)
	afterMAF = d.Bitmap(l)
	afterLD = d.Bitmap(l)
	safe = d.Bitmap(l)
	if err := d.Finish(); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: result: %w", ErrProtocol, err)
	}
	return afterMAF, afterLD, safe, nil
}

// The mutual-attestation handshake is two plaintext offers, the leader's
// first. Each handshake send and receive must complete within timeout (zero
// waits forever), so a silent or stalled peer cannot wedge the attesting
// side, and cancelling ctx interrupts an in-flight step.

// attestLeader runs the leader's side of the handshake over a raw
// connection and returns the encrypted channel. Its offer names request,
// which the member answers straight after its own offer without a request
// message: only the payload-free summary query (KindCountsRequest) may ride,
// and zero names none.
func attestLeader(ctx context.Context, raw transport.Conn, authority *attest.Authority, enc *enclave.Enclave, request uint16, timeout time.Duration) (*transport.SecureConn, error) {
	hs, err := attest.NewRequestHandshake(authority, enc, request)
	if err != nil {
		return nil, fmt.Errorf("federation: handshake: %w", err)
	}
	if err := sendOffer(ctx, raw, hs.Offer(), true, timeout); err != nil {
		return nil, err
	}
	peer, err := recvOffer(ctx, raw, false, timeout)
	if err != nil {
		return nil, err
	}
	return completeHandshake(raw, hs, authority, peer)
}

// attestMember runs a member's side of the handshake and returns the
// encrypted channel and whether the leader's offer named the summary request.
// The leader's offer is verified before the member's own goes out, so a
// member sends nothing to a peer that failed attestation or named a request
// it may not.
func attestMember(ctx context.Context, raw transport.Conn, authority *attest.Authority, enc *enclave.Enclave, timeout time.Duration) (*transport.SecureConn, bool, error) {
	hs, err := attest.NewHandshake(authority, enc)
	if err != nil {
		return nil, false, fmt.Errorf("federation: handshake: %w", err)
	}
	peer, err := recvOffer(ctx, raw, true, timeout)
	if err != nil {
		return nil, false, err
	}
	conn, err := completeHandshake(raw, hs, authority, peer)
	if err != nil {
		return nil, false, err
	}
	if peer.Request != 0 && peer.Request != KindCountsRequest {
		return nil, false, fmt.Errorf("%w: offer names request kind %d; only the summary request rides the handshake", ErrProtocol, peer.Request)
	}
	if err := sendOffer(ctx, raw, hs.Offer(), false, timeout); err != nil {
		return nil, false, err
	}
	return conn, peer.Request == KindCountsRequest, nil
}

func sendOffer(ctx context.Context, raw transport.Conn, o attest.Offer, leader bool, timeout time.Duration) error {
	//gendpr:allow(secretflow): the attestation offer is public handshake material (ECDH public key, nonce, measurement, named request kind) and must travel before the secure channel exists
	return transport.SendContext(ctx, raw, transport.Message{Kind: KindAttestOffer, Payload: encodeOffer(o, leader)}, timeout)
}

func recvOffer(ctx context.Context, raw transport.Conn, leader bool, timeout time.Duration) (attest.Offer, error) {
	m, err := transport.RecvContext(ctx, raw, timeout)
	if err != nil {
		return attest.Offer{}, fmt.Errorf("federation: handshake recv: %w", err)
	}
	if m.Kind != KindAttestOffer {
		return attest.Offer{}, fmt.Errorf("%w: expected attestation offer, got kind %d", ErrProtocol, m.Kind)
	}
	return decodeOffer(m.Payload, leader)
}

func completeHandshake(raw transport.Conn, hs *attest.Handshake, authority *attest.Authority, peer attest.Offer) (*transport.SecureConn, error) {
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

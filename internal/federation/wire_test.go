package federation

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"gendpr/internal/enclave"
	"gendpr/internal/enclave/attest"
	"gendpr/internal/genome"
	"gendpr/internal/wire"
)

func TestOfferCodecRoundTrip(t *testing.T) {
	authority, err := attest.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := platform.Load(CodeIdentity, enclave.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := attest.NewRequestHandshake(authority, enc, KindCountsRequest)
	if err != nil {
		t.Fatal(err)
	}
	offer := hs.Offer()
	for _, leader := range []bool{true, false} {
		got, err := decodeOffer(encodeOffer(offer, leader), leader)
		if err != nil {
			t.Fatalf("decodeOffer (leader %v): %v", leader, err)
		}
		if got.Quote.Measurement != offer.Quote.Measurement ||
			got.Quote.ReportData != offer.Quote.ReportData ||
			got.Nonce != offer.Nonce {
			t.Fatal("offer round trip lost fields")
		}
		if string(got.Quote.Signature) != string(offer.Quote.Signature) ||
			string(got.ECDHPub) != string(offer.ECDHPub) {
			t.Fatal("offer round trip lost byte fields")
		}
		// Only the leader's offer carries the request it names.
		if want := map[bool]uint16{true: KindCountsRequest, false: 0}[leader]; got.Request != want {
			t.Fatalf("leader %v: decoded request %d, want %d", leader, got.Request, want)
		}
		// The decoded offer must still verify.
		if err := attest.VerifyQuote(authority.PublicKey(), got.Quote, enc.Measurement()); err != nil {
			t.Fatalf("decoded quote failed verification: %v", err)
		}
	}
	// The request field is 8 bytes, on the leader's offer only.
	if d := len(encodeOffer(offer, true)) - len(encodeOffer(offer, false)); d != 8 {
		t.Fatalf("the leader's offer is %d bytes longer than a member's, want 8", d)
	}
}

func TestDecodeOfferMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"garbage":   {1, 2, 3, 4},
		"truncated": encodeOffer(attest.Offer{}, true)[:10],
		// A member's offer read as a leader's lacks the request field, and a
		// leader's read as a member's has eight bytes too many.
		"no request":  encodeOffer(attest.Offer{}, false),
		"request u64": append(encodeOffer(attest.Offer{}, false), 0, 0, 0, 0, 0, 1, 0, 0),
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeOffer(b, true); err == nil {
				t.Fatal("malformed offer accepted")
			}
		})
	}
	if _, err := decodeOffer(encodeOffer(attest.Offer{}, true), false); err == nil {
		t.Fatal("a member's offer with a request field accepted")
	}
}

func TestCountsCodec(t *testing.T) {
	payload, err := encodeCounts([]int64{1, 0, 42, 7}, 42)
	if err != nil {
		t.Fatal(err)
	}
	// 16 header bytes, then four counts at bits.Len(42) = 6 bits: 3 bytes.
	if len(payload) != 16+3 {
		t.Fatalf("counts reply is %d bytes, want 19", len(payload))
	}
	counts, n, err := decodeCounts(payload)
	if err != nil {
		t.Fatal(err)
	}
	if n != 42 || len(counts) != 4 || counts[2] != 42 || counts[3] != 7 {
		t.Fatalf("got %v, %d", counts, n)
	}
	// A count above the population but inside its width is well-formed on
	// the wire; validateCounts rejects it leader-side as an invalid payload.
	if over, err := encodeCounts([]int64{43}, 42); err != nil {
		t.Errorf("count inside the width refused: %v", err)
	} else if c, _, err := decodeCounts(over); err != nil || c[0] != 43 {
		t.Errorf("count inside the width: %v, %v", c, err)
	}
	// Negative counts and counts past the width have no packed form, and
	// neither has a negative population.
	for _, bad := range []struct {
		counts []int64
		n      int64
	}{{[]int64{1, -2, 3}, 42}, {[]int64{64}, 42}, {nil, -1}} {
		if _, err := encodeCounts(bad.counts, bad.n); !errors.Is(err, ErrProtocol) {
			t.Errorf("encodeCounts(%v, %d) = %v, want ErrProtocol", bad.counts, bad.n, err)
		}
	}
	if _, _, err := decodeCounts([]byte{1, 2}); err == nil {
		t.Error("short counts accepted")
	}
	if _, _, err := decodeCounts(append(payload, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, _, err := decodeCounts(payload[:len(payload)-1]); err == nil {
		t.Error("truncated counts accepted")
	}
	// Three 6-bit counts leave 6 padding bits in the last byte.
	padded, _ := encodeCounts([]int64{1, 0, 42}, 42)
	padded[len(padded)-1] |= 1
	if _, _, err := decodeCounts(padded); !errors.Is(err, wire.ErrNonCanonical) {
		t.Errorf("set padding bit: %v, want ErrNonCanonical", err)
	}
	neg := wire.NewEncoder(16)
	neg.Int64(-1)
	neg.Uint64(0)
	if _, _, err := decodeCounts(neg.Bytes()); err == nil {
		t.Error("negative population accepted")
	}
}

// TestPairCodecs covers the one-pair kinds, which carry the batch forms with
// one pair: the request packs two indices at bits.Len(L−1), the reply one
// joint count at bits.Len(n).
func TestPairCodecs(t *testing.T) {
	req, err := encodePairBatchRequest([][2]int{{7, 9}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(req) != 8+1 { // two 4-bit indices
		t.Fatalf("one-pair request is %d bytes, want 9", len(req))
	}
	pairs, err := decodePairBatchRequest(req, 10)
	if err != nil || len(pairs) != 1 || pairs[0] != [2]int{7, 9} {
		t.Fatalf("pair request round trip: %v, %v", pairs, err)
	}
	if _, err := decodePairBatchRequest([]byte{1}, 10); err == nil {
		t.Error("short pair request accepted")
	}
	// Index 12 fits 4 bits but not a 10-SNP shard: refused both ways.
	if _, err := encodePairBatchRequest([][2]int{{12, 1}}, 10); !errors.Is(err, ErrProtocol) {
		t.Errorf("out-of-range index encoded: %v", err)
	}
	e := wire.NewEncoder(9)
	e.Uint64(1)
	e.Packed([]int64{12, 1}, 4)
	if _, err := decodePairBatchRequest(e.Bytes(), 10); !errors.Is(err, ErrProtocol) {
		t.Errorf("out-of-range index decoded: %v", err)
	}

	s := genome.PairStatsFromCounts(5, 3, 2, 2)
	rep, err := encodePairBatchReply([]genome.PairStats{s}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) != 8+1 {
		t.Fatalf("one-pair reply is %d bytes, want 9", len(rep))
	}
	xy, err := decodePairBatchReply(rep, 5)
	if err != nil || len(xy) != 1 || xy[0] != 2 {
		t.Fatalf("pair reply round trip: %v, %v", xy, err)
	}
	if _, err := decodePairBatchReply([]byte{1, 2, 3}, 5); err == nil {
		t.Error("short pair reply accepted")
	}
	// Only Σxy travels: the marginals never leave the member.
	skewed := s
	skewed.SumX, skewed.SumXX = 4, 4
	if other, _ := encodePairBatchReply([]genome.PairStats{skewed}, 5); !bytes.Equal(other, rep) {
		t.Error("a marginal changed the pair reply")
	}
	if _, err := encodePairBatchReply([]genome.PairStats{{SumXY: 8}}, 5); !errors.Is(err, ErrProtocol) {
		t.Errorf("joint count past the width encoded: %v", err)
	}
}

func TestPairBatchCodecs(t *testing.T) {
	pairs := [][2]int{{1, 2}, {3, 4}, {5, 6}}
	req, err := encodePairBatchRequest(pairs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodePairBatchRequest(req, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != [2]int{5, 6} {
		t.Fatalf("batch request round trip: %v", got)
	}
	if len(req) != 8+wire.PackedLen(6, 10) {
		t.Fatalf("batch request is %d bytes, want %d", len(req), 8+wire.PackedLen(6, 10))
	}
	stats := []genome.PairStats{{N: 9}, {N: 9, SumXY: 7}}
	rep, err := encodePairBatchReply(stats, 9)
	if err != nil {
		t.Fatal(err)
	}
	xy, err := decodePairBatchReply(rep, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(xy) != 2 || xy[1] != 7 {
		t.Fatalf("batch reply round trip: %v", xy)
	}
	// Hostile batch sizes are rejected before allocation.
	huge := make([]byte, 8)
	huge[0] = 0xFF
	if _, err := decodePairBatchRequest(huge, 1000); err == nil {
		t.Error("hostile batch request size accepted")
	}
	if _, err := decodePairBatchReply(huge, 9); err == nil {
		t.Error("hostile batch reply size accepted")
	}
}

// claimedPairBatch is a pair-batch payload that is nothing but a length
// prefix: 8 bytes claiming n entries.
func claimedPairBatch(n uint64) []byte {
	e := wire.NewEncoder(8)
	e.Uint64(n)
	return e.Bytes()
}

// TestPairBatchDecodersCheckLengthBeforeAllocating: a Byzantine peer's 8-byte
// message claiming 1<<24 entries used to cost the receiving enclave a 768 MB
// allocation (256 MB for the request form) and seconds of zeroing before the
// decoder noticed the payload was short. Claims are held against the packed
// bytes that arrived, at one bit per value at least.
func TestPairBatchDecodersCheckLengthBeforeAllocating(t *testing.T) {
	payload := claimedPairBatch(1 << 24)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, reqErr := decodePairBatchRequest(payload, 2)
	_, repErr := decodePairBatchReply(payload, 1)
	_, _, cntErr := decodeCounts(append(make([]byte, 8), payload...))
	runtime.ReadMemStats(&after)
	if !errors.Is(reqErr, ErrProtocol) || !errors.Is(repErr, ErrProtocol) || !errors.Is(cntErr, ErrProtocol) {
		t.Fatalf("claimed-length payload: request %v, reply %v, counts %v, want ErrProtocol from all", reqErr, repErr, cntErr)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting an 8-byte payload allocated %d bytes", grew)
	}
	// One byte short is still short; exactly enough decodes. Seventeen
	// joint counts of a 1,000-genome member take 17·10 bits = 22 bytes.
	if _, err := decodePairBatchReply(append(claimedPairBatch(17), make([]byte, 21)...), 1000); !errors.Is(err, ErrProtocol) {
		t.Fatalf("reply one byte short: %v", err)
	}
	if xy, err := decodePairBatchReply(append(claimedPairBatch(17), make([]byte, 22)...), 1000); err != nil || len(xy) != 17 {
		t.Fatalf("exact reply: %v, %v", xy, err)
	}
}

// TestLRRequestCodec: a pattern request is its column list alone, a length
// and one int64 per column; a short payload or one with bytes after the list
// is refused.
func TestLRRequestCodec(t *testing.T) {
	payload := encodeLRRequest([]int{3, 1})
	if len(payload) != 8+2*8 {
		t.Fatalf("two-column request is %d bytes, want 24", len(payload))
	}
	cols, err := decodeLRRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != 3 || cols[1] != 1 {
		t.Fatalf("LR request round trip: %v", cols)
	}
	if _, err := decodeLRRequest([]byte{9}); !errors.Is(err, ErrProtocol) {
		t.Errorf("short LR request: %v", err)
	}
	if _, err := decodeLRRequest(append(payload, 0)); !errors.Is(err, ErrProtocol) {
		t.Errorf("LR request with a trailing byte: %v", err)
	}
}

func TestResultCodec(t *testing.T) {
	payload, err := encodeResult([]int{1, 2, 9}, []int{2, 9}, []int{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 3*2 {
		t.Fatalf("result is %d bytes, want three 10-bit maps in 6", len(payload))
	}
	maf, ld, safe, err := decodeResult(payload, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(maf) != 3 || maf[2] != 9 || len(ld) != 2 || len(safe) != 0 {
		t.Fatalf("result round trip: %v %v %v", maf, ld, safe)
	}
	if _, _, _, err := decodeResult([]byte{1, 2, 3}, 10); err == nil {
		t.Error("short result accepted")
	}
	for name, lists := range map[string][3][]int{
		"unsorted":     {{2, 1}, nil, nil},
		"duplicate":    {nil, {3, 3}, nil},
		"out of range": {nil, nil, {10}},
		"negative":     {{-1}, nil, nil},
	} {
		if _, err := encodeResult(lists[0], lists[1], lists[2], 10); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s list encoded: %v", name, err)
		}
	}
	// Bit 10 of a 10-bit map is padding.
	bad := append([]byte(nil), payload...)
	bad[1] |= 0x20
	if _, _, _, err := decodeResult(bad, 10); !errors.Is(err, wire.ErrNonCanonical) {
		t.Errorf("bit past L accepted: %v", err)
	}
}

// TestWireLengthsDependOnShapeOnly is the side-channel property of the
// reworked messages: whatever the counts, joint counts and selections, two
// payloads of the same shape — L SNPs, n genomes, the same number of pairs —
// have the same length, so a length on the wire says nothing a peer does
// not already know.
func TestWireLengthsDependOnShapeOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		l := 2 + rng.Intn(300)
		n := int64(rng.Intn(5000))
		pairs := rng.Intn(50)
		lengths := map[string]map[int]bool{}
		note := func(msg string, b []byte, err error) {
			if err != nil {
				t.Fatalf("%s (L=%d n=%d): %v", msg, l, n, err)
			}
			if lengths[msg] == nil {
				lengths[msg] = map[int]bool{}
			}
			lengths[msg][len(b)] = true
		}
		for draw := 0; draw < 4; draw++ {
			counts := make([]int64, l)
			for i := range counts {
				counts[i] = rng.Int63n(n + 1)
			}
			b, err := encodeCounts(counts, n)
			note("counts", b, err)

			ps := make([][2]int, pairs)
			stats := make([]genome.PairStats, pairs)
			for i := range ps {
				ps[i] = [2]int{rng.Intn(l), rng.Intn(l)}
				stats[i].SumXY = rng.Int63n(n + 1)
			}
			b, err = encodePairBatchRequest(ps, l)
			note("pair request", b, err)
			b, err = encodePairBatchReply(stats, n)
			note("pair reply", b, err)

			var sel [3][]int
			for k := range sel {
				for i := 0; i < l; i++ {
					if rng.Intn(3) == 0 {
						sel[k] = append(sel[k], i)
					}
				}
			}
			b, err = encodeResult(sel[0], sel[1], sel[2], l)
			note("result", b, err)
		}
		for msg, seen := range lengths {
			if len(seen) != 1 {
				t.Fatalf("%s lengths %v for one shape (L=%d n=%d pairs=%d)", msg, seen, l, n, pairs)
			}
		}
	}
}

package federation

import (
	"bytes"
	"testing"

	"gendpr/internal/enclave/attest"
	"gendpr/internal/genome"
)

// The decoders of the packed messages are canonical: every payload they
// accept re-encodes to exactly its own bytes. The leader's equivocation
// ledger digests raw payloads, so two encodings of one answer would let an
// honest member look like an equivocator, or a lying one hide.

// FuzzDecodeOffer: arbitrary bytes must never panic, and every accepted
// offer must survive an encode/decode round trip unchanged.
func FuzzDecodeOffer(f *testing.F) {
	var o attest.Offer
	copy(o.Quote.Measurement[:], bytes.Repeat([]byte{0xAB}, len(o.Quote.Measurement)))
	o.Quote.Signature = []byte("sig")
	o.ECDHPub = []byte("pubkey")
	f.Add(encodeOffer(o, false))
	o.Request = KindCountsRequest
	f.Add(encodeOffer(o, true))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The same bytes read as the leader's offer and as a member's.
		for _, leader := range []bool{true, false} {
			got, err := decodeOffer(data, leader)
			if err != nil {
				continue
			}
			if !bytes.Equal(encodeOffer(got, leader), data) {
				t.Fatalf("offer round trip (leader %v) diverged for %x", leader, data)
			}
		}
	})
}

// mustEncode unwraps an encoder's result in a seed corpus.
func mustEncode(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// FuzzDecodeCounts: accepted payloads round-trip through encodeCounts.
func FuzzDecodeCounts(f *testing.F) {
	f.Add(mustEncode(encodeCounts([]int64{1, 2, 3}, 40)))
	f.Add(mustEncode(encodeCounts(nil, 0)))
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		counts, n, err := decodeCounts(data)
		if err != nil {
			return
		}
		re, err := encodeCounts(counts, n)
		if err != nil || !bytes.Equal(re, data) {
			t.Fatalf("counts round trip diverged for %x: %x, %v", data, re, err)
		}
	})
}

// FuzzDecodePairRequest: a one-pair batch request against a shard of fuzzed
// width; accepted payloads round-trip.
func FuzzDecodePairRequest(f *testing.F) {
	f.Add(mustEncode(encodePairBatchRequest([][2]int{{3, 7}}, 10)), uint32(10))
	f.Add([]byte{}, uint32(1))
	f.Fuzz(func(t *testing.T, data []byte, l uint32) {
		pairs, err := decodePairBatchRequest(data, int(l))
		if err != nil {
			return
		}
		re, err := encodePairBatchRequest(pairs, int(l))
		if err != nil || !bytes.Equal(re, data) {
			t.Fatalf("pair request round trip diverged for %x (L=%d): %x, %v", data, l, re, err)
		}
	})
}

// FuzzDecodePairStats: a pair reply from a member of fuzzed population;
// accepted payloads round-trip.
func FuzzDecodePairStats(f *testing.F) {
	f.Add(mustEncode(encodePairBatchReply([]genome.PairStats{{SumXY: 3}}, 5)), int64(5))
	f.Add([]byte{0x00}, int64(-1))
	f.Fuzz(func(t *testing.T, data []byte, n int64) {
		xy, err := decodePairBatchReply(data, n)
		if err != nil {
			return
		}
		re, err := encodePairBatchReply(jointCounts(xy), n)
		if err != nil || !bytes.Equal(re, data) {
			t.Fatalf("pair reply round trip diverged for %x (n=%d): %x, %v", data, n, re, err)
		}
	})
}

// jointCounts wraps decoded joint counts as the statistics a reply encodes.
func jointCounts(xy []int64) []genome.PairStats {
	stats := make([]genome.PairStats, len(xy))
	for i, v := range xy {
		stats[i].SumXY = v
	}
	return stats
}

// FuzzDecodePairBatchRequest: the length prefix is attacker-controlled; the
// decoder must reject oversized claims instead of allocating for them, and
// accepted payloads must round-trip.
func FuzzDecodePairBatchRequest(f *testing.F) {
	const l = 10000
	f.Add(mustEncode(encodePairBatchRequest([][2]int{{0, 1}, {2, 3}}, l)))
	f.Add(mustEncode(encodePairBatchRequest(nil, l)))
	// Claims 2^63 pairs with no bodies: must fail fast.
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0})
	// Claims 2^24 pairs — inside the old size bound — with no bodies.
	f.Add(claimedPairBatch(1 << 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs, err := decodePairBatchRequest(data, l)
		if err != nil {
			return
		}
		re, err := encodePairBatchRequest(pairs, l)
		if err != nil || !bytes.Equal(re, data) {
			t.Fatalf("pair batch request round trip diverged for %x: %x, %v", data, re, err)
		}
	})
}

// FuzzDecodePairBatchReply: same length-prefix hardening as the request.
func FuzzDecodePairBatchReply(f *testing.F) {
	const n = 4953
	f.Add(mustEncode(encodePairBatchReply([]genome.PairStats{{SumXY: 1}, {SumXY: n}}, n)))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(claimedPairBatch(1 << 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		xy, err := decodePairBatchReply(data, n)
		if err != nil {
			return
		}
		re, err := encodePairBatchReply(jointCounts(xy), n)
		if err != nil || !bytes.Equal(re, data) {
			t.Fatalf("pair batch reply round trip diverged for %x: %x, %v", data, re, err)
		}
	})
}

// FuzzDecodeLRRequest: accepted payloads round-trip.
func FuzzDecodeLRRequest(f *testing.F) {
	f.Add(encodeLRRequest([]int{1, 2}))
	f.Add(encodeLRRequest(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		cols, err := decodeLRRequest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeLRRequest(cols), data) {
			t.Fatalf("LR request round trip diverged for %x", data)
		}
	})
}

// FuzzDecodeResult: accepted payloads round-trip, at a fuzzed L.
func FuzzDecodeResult(f *testing.F) {
	f.Add(mustEncode(encodeResult([]int{1}, []int{1, 2}, []int{2}, 3)), uint16(3))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, l uint16) {
		afterMAF, afterLD, safe, err := decodeResult(data, int(l))
		if err != nil {
			return
		}
		re, err := encodeResult(afterMAF, afterLD, safe, int(l))
		if err != nil || !bytes.Equal(re, data) {
			t.Fatalf("result round trip diverged for %x (L=%d): %x, %v", data, l, re, err)
		}
	})
}

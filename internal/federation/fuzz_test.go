package federation

import (
	"bytes"
	"testing"

	"gendpr/internal/enclave/attest"
	"gendpr/internal/genome"
)

// FuzzDecodeOffer: arbitrary bytes must never panic, and every accepted
// offer must survive an encode/decode round trip unchanged.
func FuzzDecodeOffer(f *testing.F) {
	var o attest.Offer
	copy(o.Quote.Measurement[:], bytes.Repeat([]byte{0xAB}, len(o.Quote.Measurement)))
	o.Quote.Signature = []byte("sig")
	o.ECDHPub = []byte("pubkey")
	f.Add(encodeOffer(o))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeOffer(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeOffer(got), data) {
			t.Fatalf("offer round trip diverged for %x", data)
		}
	})
}

// FuzzDecodeCounts: accepted payloads round-trip through encodeCounts.
func FuzzDecodeCounts(f *testing.F) {
	f.Add(encodeCounts([]int64{1, 2, 3}, 40))
	f.Add(encodeCounts(nil, 0))
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		counts, n, err := decodeCounts(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeCounts(counts, n), data) {
			t.Fatalf("counts round trip diverged for %x", data)
		}
	})
}

// FuzzDecodePairRequest: accepted payloads round-trip.
func FuzzDecodePairRequest(f *testing.F) {
	f.Add(encodePairRequest(3, 7))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, err := decodePairRequest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodePairRequest(a, b), data) {
			t.Fatalf("pair request round trip diverged for %x", data)
		}
	})
}

// FuzzDecodePairStats: accepted payloads round-trip.
func FuzzDecodePairStats(f *testing.F) {
	f.Add(encodePairStats(genome.PairStats{N: 5, SumX: 1, SumY: 2, SumXY: 3, SumXX: 4, SumYY: 5}))
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodePairStats(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodePairStats(s), data) {
			t.Fatalf("pair stats round trip diverged for %x", data)
		}
	})
}

// FuzzDecodePairBatchRequest: the length prefix is attacker-controlled; the
// decoder must reject oversized claims instead of allocating for them, and
// accepted payloads must round-trip.
func FuzzDecodePairBatchRequest(f *testing.F) {
	f.Add(encodePairBatchRequest([][2]int{{0, 1}, {2, 3}}))
	f.Add(encodePairBatchRequest(nil))
	// Claims 2^63 pairs with no bodies: must fail fast.
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0})
	// Claims 2^24 pairs — inside the old size bound — with no bodies.
	f.Add(claimedPairBatch(1 << 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs, err := decodePairBatchRequest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodePairBatchRequest(pairs), data) {
			t.Fatalf("pair batch request round trip diverged for %x", data)
		}
	})
}

// FuzzDecodePairBatchReply: same length-prefix hardening as the request.
func FuzzDecodePairBatchReply(f *testing.F) {
	f.Add(encodePairBatchReply([]genome.PairStats{{N: 1}, {N: 2, SumXY: -3}}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(claimedPairBatch(1 << 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		stats, err := decodePairBatchReply(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodePairBatchReply(stats), data) {
			t.Fatalf("pair batch reply round trip diverged for %x", data)
		}
	})
}

// FuzzDecodeLRRequest: accepted payloads round-trip.
func FuzzDecodeLRRequest(f *testing.F) {
	f.Add(encodeLRRequest([]int{1, 2}, []float64{0.1, 0.2}, []float64{0.3, 0.4}))
	f.Add(encodeLRRequest(nil, nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		cols, cf, rf, err := decodeLRRequest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeLRRequest(cols, cf, rf), data) {
			t.Fatalf("LR request round trip diverged for %x", data)
		}
	})
}

// FuzzDecodeResult: accepted payloads round-trip.
func FuzzDecodeResult(f *testing.F) {
	f.Add(encodeResult([]int{1}, []int{1, 2}, []int{2}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		afterMAF, afterLD, safe, err := decodeResult(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeResult(afterMAF, afterLD, safe), data) {
			t.Fatalf("result round trip diverged for %x", data)
		}
	})
}

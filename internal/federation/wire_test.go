package federation

import (
	"errors"
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
	hs, err := attest.NewHandshake(authority, enc)
	if err != nil {
		t.Fatal(err)
	}
	offer := hs.Offer()
	got, err := decodeOffer(encodeOffer(offer))
	if err != nil {
		t.Fatalf("decodeOffer: %v", err)
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
	// The decoded offer must still verify.
	if err := attest.VerifyQuote(authority.PublicKey(), got.Quote, enc.Measurement()); err != nil {
		t.Fatalf("decoded quote failed verification: %v", err)
	}
}

func TestDecodeOfferMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"garbage":   {1, 2, 3, 4},
		"truncated": encodeOffer(attest.Offer{})[:10],
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeOffer(b); err == nil {
				t.Fatal("malformed offer accepted")
			}
		})
	}
}

func TestCountsCodec(t *testing.T) {
	counts, n, err := decodeCounts(encodeCounts([]int64{1, -2, 3}, 42))
	if err != nil {
		t.Fatal(err)
	}
	if n != 42 || len(counts) != 3 || counts[1] != -2 {
		t.Fatalf("got %v, %d", counts, n)
	}
	if _, _, err := decodeCounts([]byte{1, 2}); err == nil {
		t.Error("short counts accepted")
	}
	if _, _, err := decodeCounts(append(encodeCounts(nil, 1), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestPairCodecs(t *testing.T) {
	a, b, err := decodePairRequest(encodePairRequest(7, 9))
	if err != nil || a != 7 || b != 9 {
		t.Fatalf("pair request round trip: %d,%d,%v", a, b, err)
	}
	if _, _, err := decodePairRequest([]byte{1}); err == nil {
		t.Error("short pair request accepted")
	}

	s := genome.PairStats{N: 1, SumX: 2, SumY: 3, SumXY: 4, SumXX: 5, SumYY: 6}
	got, err := decodePairStats(encodePairStats(s))
	if err != nil || got != s {
		t.Fatalf("pair stats round trip: %+v, %v", got, err)
	}
	if _, err := decodePairStats([]byte{1, 2, 3}); err == nil {
		t.Error("short pair stats accepted")
	}
}

func TestPairBatchCodecs(t *testing.T) {
	pairs := [][2]int{{1, 2}, {3, 4}, {5, 6}}
	got, err := decodePairBatchRequest(encodePairBatchRequest(pairs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != [2]int{5, 6} {
		t.Fatalf("batch request round trip: %v", got)
	}
	stats := []genome.PairStats{{N: 1}, {N: 2, SumXY: 7}}
	gotStats, err := decodePairBatchReply(encodePairBatchReply(stats))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotStats) != 2 || gotStats[1].SumXY != 7 {
		t.Fatalf("batch reply round trip: %v", gotStats)
	}
	// Hostile batch sizes are rejected before allocation.
	huge := make([]byte, 8)
	huge[0] = 0xFF
	if _, err := decodePairBatchRequest(huge); err == nil {
		t.Error("hostile batch request size accepted")
	}
	if _, err := decodePairBatchReply(huge); err == nil {
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
// decoder noticed the payload was short.
func TestPairBatchDecodersCheckLengthBeforeAllocating(t *testing.T) {
	payload := claimedPairBatch(1 << 24)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, reqErr := decodePairBatchRequest(payload)
	_, repErr := decodePairBatchReply(payload)
	runtime.ReadMemStats(&after)
	if !errors.Is(reqErr, ErrProtocol) || !errors.Is(repErr, ErrProtocol) {
		t.Fatalf("claimed-length payload: request error %v, reply error %v, want ErrProtocol from both", reqErr, repErr)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting an 8-byte payload allocated %d bytes", grew)
	}
	// One entry short is still short; exactly enough decodes.
	short := append(claimedPairBatch(2), make([]byte, 2*48-1)...)
	if _, err := decodePairBatchReply(short); !errors.Is(err, ErrProtocol) {
		t.Fatalf("reply one byte short: %v", err)
	}
	if stats, err := decodePairBatchReply(append(claimedPairBatch(2), make([]byte, 2*48)...)); err != nil || len(stats) != 2 {
		t.Fatalf("exact reply: %v, %v", stats, err)
	}
}

func TestLRRequestCodec(t *testing.T) {
	cols, caseFreq, refFreq, err := decodeLRRequest(encodeLRRequest([]int{3, 1}, []float64{0.5, 0.25}, []float64{0.75, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != 3 || caseFreq[1] != 0.25 || refFreq[0] != 0.75 {
		t.Fatalf("LR request round trip: %v %v %v", cols, caseFreq, refFreq)
	}
	if _, _, _, err := decodeLRRequest([]byte{9}); err == nil {
		t.Error("short LR request accepted")
	}
}

func TestResultCodec(t *testing.T) {
	maf, ld, safe, err := decodeResult(encodeResult([]int{1, 2}, []int{2}, []int{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(maf) != 2 || len(ld) != 1 || len(safe) != 0 {
		t.Fatalf("result round trip: %v %v %v", maf, ld, safe)
	}
	if _, _, _, err := decodeResult([]byte{1, 2, 3}); err == nil {
		t.Error("short result accepted")
	}
}

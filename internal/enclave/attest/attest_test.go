package attest

import (
	"bytes"
	"errors"
	"testing"

	"gendpr/internal/enclave"
)

type fixture struct {
	authority *Authority
	platformA *enclave.Platform
	platformB *enclave.Platform
	encA      *enclave.Enclave
	encB      *enclave.Enclave
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	pa, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	ea, err := pa.Load([]byte("gendpr-enclave"), enclave.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eb, err := pb.Load([]byte("gendpr-enclave"), enclave.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{authority: auth, platformA: pa, platformB: pb, encA: ea, encB: eb}
}

func TestQuoteVerifies(t *testing.T) {
	f := newFixture(t)
	var rd [32]byte
	rd[0] = 7
	q := f.authority.Quote(f.encA, rd)
	if err := VerifyQuote(f.authority.PublicKey(), q, f.encA.Measurement()); err != nil {
		t.Fatalf("valid quote rejected: %v", err)
	}
}

func TestQuoteWrongMeasurement(t *testing.T) {
	f := newFixture(t)
	var rd [32]byte
	q := f.authority.Quote(f.encA, rd)
	other := enclave.MeasurementOf([]byte("different-code"))
	if err := VerifyQuote(f.authority.PublicKey(), q, other); !errors.Is(err, ErrMeasurementMismatch) {
		t.Fatalf("expected measurement mismatch, got %v", err)
	}
}

func TestQuoteForgedSignature(t *testing.T) {
	f := newFixture(t)
	rogue, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	var rd [32]byte
	forged := rogue.Quote(f.encA, rd)
	if err := VerifyQuote(f.authority.PublicKey(), forged, f.encA.Measurement()); !errors.Is(err, ErrQuoteInvalid) {
		t.Fatalf("forged quote accepted: %v", err)
	}
}

func TestQuoteTamperedBytes(t *testing.T) {
	f := newFixture(t)
	var rd [32]byte
	q := f.authority.Quote(f.encA, rd)
	q.ReportData[0] ^= 1
	if err := VerifyQuote(f.authority.PublicKey(), q, f.encA.Measurement()); !errors.Is(err, ErrQuoteInvalid) {
		t.Fatalf("tampered quote accepted: %v", err)
	}
}

func TestMutualAttestationDerivesSharedKey(t *testing.T) {
	f := newFixture(t)
	ha, err := NewHandshake(f.authority, f.encA)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := NewHandshake(f.authority, f.encB)
	if err != nil {
		t.Fatal(err)
	}
	ka, err := ha.Complete(f.authority.PublicKey(), hb.Offer(), f.encB.Measurement())
	if err != nil {
		t.Fatalf("A completing: %v", err)
	}
	kb, err := hb.Complete(f.authority.PublicKey(), ha.Offer(), f.encA.Measurement())
	if err != nil {
		t.Fatalf("B completing: %v", err)
	}
	if !bytes.Equal(ka, kb) {
		t.Fatal("handshake sides derived different keys")
	}
	if len(ka) != 32 {
		t.Fatalf("session key %d bytes, want 32", len(ka))
	}
}

func TestHandshakeRejectsWrongMeasurement(t *testing.T) {
	f := newFixture(t)
	// The peer runs unexpected code.
	evil, err := f.platformB.Load([]byte("evil-code"), enclave.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ha, err := NewHandshake(f.authority, f.encA)
	if err != nil {
		t.Fatal(err)
	}
	he, err := NewHandshake(f.authority, evil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ha.Complete(f.authority.PublicKey(), he.Offer(), f.encA.Measurement()); !errors.Is(err, ErrMeasurementMismatch) {
		t.Fatalf("wrong measurement accepted: %v", err)
	}
}

func TestHandshakeRejectsSubstitutedKey(t *testing.T) {
	// A man in the middle replacing the ECDH key breaks the report-data
	// binding even though the quote itself is genuine.
	f := newFixture(t)
	ha, err := NewHandshake(f.authority, f.encA)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := NewHandshake(f.authority, f.encB)
	if err != nil {
		t.Fatal(err)
	}
	offer := hb.Offer()
	mitm, err := NewHandshake(f.authority, f.encA) // attacker-grade fresh key
	if err != nil {
		t.Fatal(err)
	}
	offer.ECDHPub = mitm.Offer().ECDHPub
	if _, err := ha.Complete(f.authority.PublicKey(), offer, f.encB.Measurement()); !errors.Is(err, ErrReportDataMismatch) {
		t.Fatalf("substituted key accepted: %v", err)
	}
}

func TestHandshakeRejectsReplayedNonce(t *testing.T) {
	f := newFixture(t)
	ha, err := NewHandshake(f.authority, f.encA)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := NewHandshake(f.authority, f.encB)
	if err != nil {
		t.Fatal(err)
	}
	offer := hb.Offer()
	offer.Nonce[0] ^= 1
	if _, err := ha.Complete(f.authority.PublicKey(), offer, f.encB.Measurement()); !errors.Is(err, ErrReportDataMismatch) {
		t.Fatalf("modified nonce accepted: %v", err)
	}
}

func TestHandshakeBindsRequest(t *testing.T) {
	// The request an offer names is part of the attested report data: the
	// genuine one completes, and one changed in flight — named, cleared or
	// swapped — breaks the binding.
	f := newFixture(t)
	ha, err := NewHandshake(f.authority, f.encA)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := NewRequestHandshake(f.authority, f.encB, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := hb.Offer().Request; got != 2 {
		t.Fatalf("offer names request %d, want 2", got)
	}
	if _, err := ha.Complete(f.authority.PublicKey(), hb.Offer(), f.encB.Measurement()); err != nil {
		t.Fatalf("genuine request offer rejected: %v", err)
	}
	for _, request := range []uint16{0, 3, 0x0200} {
		offer := hb.Offer()
		offer.Request = request
		if _, err := ha.Complete(f.authority.PublicKey(), offer, f.encB.Measurement()); !errors.Is(err, ErrReportDataMismatch) {
			t.Errorf("request changed to %d accepted: %v", request, err)
		}
	}
	cleared := ha.Offer()
	cleared.Request = 2
	if _, err := hb.Complete(f.authority.PublicKey(), cleared, f.encA.Measurement()); !errors.Is(err, ErrReportDataMismatch) {
		t.Errorf("request added in flight accepted: %v", err)
	}
}

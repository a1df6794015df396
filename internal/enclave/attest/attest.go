// Package attest simulates SGX remote attestation. A quoting Authority
// (standing in for Intel's attestation infrastructure) signs quotes over an
// enclave's measurement and caller-chosen report data; verifiers pin the
// authority's public key and the expected measurement. A mutual-attestation
// handshake binds ephemeral ECDH public keys into the report data so that the
// derived session key is only shared with a genuine enclave running the
// expected code — the paper's "trust-chain from boot to communication".
package attest

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"gendpr/internal/enclave"
	"gendpr/internal/seal"
)

const nonceSize = 16

var (
	// ErrQuoteInvalid is returned when a quote's signature does not verify.
	ErrQuoteInvalid = errors.New("attest: quote signature invalid")

	// ErrMeasurementMismatch is returned when a verified quote carries an
	// unexpected measurement.
	ErrMeasurementMismatch = errors.New("attest: measurement mismatch")

	// ErrReportDataMismatch is returned when the quote's report data does
	// not bind the handshake material.
	ErrReportDataMismatch = errors.New("attest: report data mismatch")
)

// Quote is the attestation evidence for one enclave.
type Quote struct {
	Measurement enclave.Measurement
	ReportData  [sha256.Size]byte
	Signature   []byte
}

// Authority simulates the quoting infrastructure that signs quotes.
type Authority struct {
	key *seal.SigningKey
}

// NewAuthority creates a quoting authority with a fresh signing key.
func NewAuthority() (*Authority, error) {
	k, err := seal.NewSigningKey()
	if err != nil {
		return nil, fmt.Errorf("attest: authority key: %w", err)
	}
	return &Authority{key: k}, nil
}

// NewAuthorityFromSeed derives a deterministic authority from a 32-byte
// seed, so separate operating-system processes of one deployment trust the
// same attestation infrastructure.
func NewAuthorityFromSeed(seed []byte) (*Authority, error) {
	k, err := seal.NewSigningKeyFromSeed(seed)
	if err != nil {
		return nil, fmt.Errorf("attest: authority seed: %w", err)
	}
	return &Authority{key: k}, nil
}

// PublicKey returns the authority's verification key, which every verifier
// pins.
func (a *Authority) PublicKey() ed25519.PublicKey { return a.key.Public() }

// Quote issues a signed quote for an enclave with the given report data.
func (a *Authority) Quote(e *enclave.Enclave, reportData [sha256.Size]byte) Quote {
	m := e.Measurement()
	return Quote{
		Measurement: m,
		ReportData:  reportData,
		Signature:   a.key.Sign(quoteMessage(m, reportData)),
	}
}

func quoteMessage(m enclave.Measurement, rd [sha256.Size]byte) []byte {
	msg := make([]byte, 0, len(m)+len(rd)+16)
	msg = append(msg, []byte("gendpr-quote-v1|")...)
	msg = append(msg, m[:]...)
	msg = append(msg, rd[:]...)
	return msg
}

// VerifyQuote checks a quote against the pinned authority key and expected
// measurement.
func VerifyQuote(authority ed25519.PublicKey, q Quote, expected enclave.Measurement) error {
	if !seal.Verify(authority, quoteMessage(q.Measurement, q.ReportData), q.Signature) {
		return ErrQuoteInvalid
	}
	if q.Measurement != expected {
		return fmt.Errorf("%w: got %s, want %s", ErrMeasurementMismatch, q.Measurement, expected)
	}
	return nil
}

// Offer is one side's contribution to the mutual-attestation handshake.
type Offer struct {
	Quote   Quote
	ECDHPub []byte
	Nonce   [nonceSize]byte
	// Request names the first request the offering side makes without a
	// further message: the peer answers it straight after its own offer.
	// Zero names none. It is bound into the quote's report data, so a
	// request kind changed in flight fails verification.
	Request uint16
}

// Handshake holds one side's ephemeral state.
type Handshake struct {
	keyPair *seal.KeyPair
	offer   Offer
}

// NewHandshake prepares an attested handshake for the enclave whose offer
// names no request.
func NewHandshake(a *Authority, e *enclave.Enclave) (*Handshake, error) {
	return NewRequestHandshake(a, e, 0)
}

// NewRequestHandshake prepares an attested handshake for the enclave: it
// generates an ephemeral ECDH key and a nonce, and obtains a quote whose
// report data binds both and the request the offer names.
func NewRequestHandshake(a *Authority, e *enclave.Enclave, request uint16) (*Handshake, error) {
	kp, err := seal.NewKeyPair()
	if err != nil {
		return nil, fmt.Errorf("attest: handshake key: %w", err)
	}
	var nonce [nonceSize]byte
	if _, err := io.ReadFull(rand.Reader, nonce[:]); err != nil {
		return nil, fmt.Errorf("attest: handshake nonce: %w", err)
	}
	pub := kp.PublicBytes()
	rd := reportDataFor(pub, nonce, request)
	return &Handshake{
		keyPair: kp,
		offer: Offer{
			Quote:   a.Quote(e, rd),
			ECDHPub: pub,
			Nonce:   nonce,
			Request: request,
		},
	}, nil
}

func reportDataFor(pub []byte, nonce [nonceSize]byte, request uint16) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte("gendpr-handshake-v2|"))
	h.Write(pub)
	h.Write(nonce[:])
	h.Write([]byte{byte(request >> 8), byte(request)})
	var rd [sha256.Size]byte
	copy(rd[:], h.Sum(nil))
	return rd
}

// Offer returns the material to send to the peer.
func (h *Handshake) Offer() Offer { return h.offer }

// Complete verifies the peer's offer (quote signature, expected measurement,
// report-data binding of its key, nonce and request) and derives the shared session key. Both sides derive
// the same key regardless of who initiated.
func (h *Handshake) Complete(authority ed25519.PublicKey, peer Offer, expected enclave.Measurement) ([]byte, error) {
	if err := VerifyQuote(authority, peer.Quote, expected); err != nil {
		return nil, err
	}
	if reportDataFor(peer.ECDHPub, peer.Nonce, peer.Request) != peer.Quote.ReportData {
		return nil, ErrReportDataMismatch
	}
	// Symmetric transcript: order the two (nonce, pub) pairs canonically so
	// both sides compute identical info bytes.
	mine := append(append([]byte{}, h.offer.Nonce[:]...), h.offer.ECDHPub...)
	theirs := append(append([]byte{}, peer.Nonce[:]...), peer.ECDHPub...)
	lo, hi := mine, theirs
	if bytes.Compare(lo, hi) > 0 {
		lo, hi = hi, lo
	}
	info := append([]byte("gendpr-attested-session-v1|"), append(lo, hi...)...)
	key, err := h.keyPair.SessionKey(peer.ECDHPub, info)
	if err != nil {
		return nil, fmt.Errorf("attest: session key: %w", err)
	}
	return key, nil
}

// Package enclave simulates the Trusted Execution Environment contract
// GenDPR relies on. Real deployments use Intel SGX (the paper runs on
// Graphene-SGX); this package substitutes a software TEE that enforces the
// same observable guarantees the protocol depends on:
//
//   - a code identity (measurement) that remote parties can verify,
//   - sealed storage bound to the platform and the measurement
//     (AES-256-GCM under an HKDF-derived sealing key),
//   - bounded protected memory with explicit accounting (the EPC limit).
//
// The substitution is documented in DESIGN.md; protocol logic never peeks
// behind this interface.
package enclave

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"

	"gendpr/internal/seal"
)

const (
	// EPCSize mirrors the 128 MB enclave page cache of SGX1 the paper
	// cites. Usage beyond it does not fail — SGX2 pages enclave memory —
	// but it is tracked (PagedPeak) because paging costs performance.
	EPCSize = 128 << 20

	// DefaultMemoryLimit is the hard ceiling, matching the paper's remark
	// that SGX2 expands an enclave's memory to up to 4 GB.
	DefaultMemoryLimit = 4 << 30
)

var (
	// ErrOutOfMemory is returned when an allocation would exceed the
	// enclave's protected-memory limit.
	ErrOutOfMemory = errors.New("enclave: protected memory limit exceeded")

	// ErrSealedCorrupt is returned when sealed data fails authentication.
	ErrSealedCorrupt = errors.New("enclave: sealed data failed authentication")
)

// Measurement is the SHA-256 digest of an enclave's code identity, the value
// remote attestation pins.
type Measurement [sha256.Size]byte

// MeasurementOf computes the measurement of a code identity.
func MeasurementOf(codeIdentity []byte) Measurement {
	return sha256.Sum256(codeIdentity)
}

// String returns the hexadecimal form of the measurement.
func (m Measurement) String() string { return hex.EncodeToString(m[:]) }

// Platform models one TEE-capable machine. Each platform holds a unique
// sealing root (fused hardware key in real SGX); enclaves on the same
// platform with the same measurement derive the same sealing key, enclaves
// elsewhere cannot.
type Platform struct {
	sealingRoot []byte
}

// NewPlatform creates a platform with a fresh sealing root.
func NewPlatform() (*Platform, error) {
	root := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, root); err != nil {
		return nil, fmt.Errorf("enclave: platform root: %w", err)
	}
	return &Platform{sealingRoot: root}, nil
}

// Enclave is one loaded enclave instance.
type Enclave struct {
	measurement Measurement
	sealKey     []byte

	mu       sync.Mutex
	memLimit int64
	memUsed  int64
	memPeak  int64
}

// Config tunes enclave creation.
type Config struct {
	// MemoryLimit bounds protected memory in bytes; zero selects
	// DefaultMemoryLimit.
	MemoryLimit int64
}

// Load creates an enclave on the platform from a code identity.
func (p *Platform) Load(codeIdentity []byte, cfg Config) (*Enclave, error) {
	limit := cfg.MemoryLimit
	if limit == 0 {
		limit = DefaultMemoryLimit
	}
	if limit < 0 {
		return nil, fmt.Errorf("enclave: negative memory limit %d", limit)
	}
	m := MeasurementOf(codeIdentity)
	key, err := seal.HKDF(p.sealingRoot, m[:], []byte("enclave-sealing-key-v1"), seal.KeySize)
	if err != nil {
		return nil, fmt.Errorf("enclave: derive sealing key: %w", err)
	}
	return &Enclave{
		measurement: m,
		sealKey:     key,
		memLimit:    limit,
	}, nil
}

// Measurement returns the enclave's code identity digest.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// Alloc accounts n bytes of protected memory, failing when the limit would
// be exceeded. Callers pair it with Free; the peak is reported by MemoryPeak.
func (e *Enclave) Alloc(n int64) error {
	if n < 0 {
		// Allocation sizes derive from member populations; the accounting
		// numbers stay out of error strings.
		return errors.New("enclave: negative allocation")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.memUsed+n > e.memLimit {
		return fmt.Errorf("%w: request exceeds the %d-byte enclave budget", ErrOutOfMemory, e.memLimit)
	}
	e.memUsed += n
	if e.memUsed > e.memPeak {
		e.memPeak = e.memUsed
	}
	return nil
}

// Free releases n bytes of protected memory.
func (e *Enclave) Free(n int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.memUsed -= n
	if e.memUsed < 0 {
		e.memUsed = 0
	}
}

// MemoryUsed returns the currently accounted protected memory.
func (e *Enclave) MemoryUsed() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.memUsed
}

// MemoryPeak returns the high-water mark of protected memory.
func (e *Enclave) MemoryPeak() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.memPeak
}

// PagedPeak returns how far the high-water mark exceeded the EPC — the
// amount of enclave memory that SGX2 would have had to page, at significant
// performance cost. Zero means the working set fit the EPC.
func (e *Enclave) PagedPeak() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.memPeak <= EPCSize {
		return 0
	}
	return e.memPeak - EPCSize
}

// Seal encrypts data under the enclave's sealing key. Only an enclave with
// the same measurement on the same platform can unseal it.
func (e *Enclave) Seal(data []byte) ([]byte, error) {
	return seal.Encrypt(e.sealKey, data, nil)
}

// Unseal decrypts sealed data.
func (e *Enclave) Unseal(blob []byte) ([]byte, error) {
	pt, err := seal.Decrypt(e.sealKey, blob, nil)
	if err != nil {
		return nil, ErrSealedCorrupt
	}
	return pt, nil
}

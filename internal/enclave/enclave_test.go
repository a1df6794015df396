package enclave

import (
	"bytes"
	"errors"
	"testing"
)

func newTestEnclave(t *testing.T, code string, cfg Config) (*Platform, *Enclave) {
	t.Helper()
	p, err := NewPlatform()
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	e, err := p.Load([]byte(code), cfg)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return p, e
}

func TestMeasurementDeterministic(t *testing.T) {
	a := MeasurementOf([]byte("gendpr-v1"))
	b := MeasurementOf([]byte("gendpr-v1"))
	c := MeasurementOf([]byte("gendpr-v2"))
	if a != b {
		t.Fatal("same code identity must yield same measurement")
	}
	if a == c {
		t.Fatal("different code identities must yield different measurements")
	}
	if len(a.String()) != 64 {
		t.Fatalf("measurement hex %q has wrong length", a.String())
	}
}

func TestSealUnsealSamePlatformSameCode(t *testing.T) {
	p, e := newTestEnclave(t, "code", Config{})
	blob, err := e.Seal([]byte("secret genome index"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	// A re-loaded enclave with the same measurement on the same platform
	// can unseal.
	e2, err := p.Load([]byte("code"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := e2.Unseal(blob)
	if err != nil {
		t.Fatalf("Unseal on re-loaded enclave: %v", err)
	}
	if !bytes.Equal(pt, []byte("secret genome index")) {
		t.Fatal("unsealed data mismatch")
	}
}

func TestSealIsolation(t *testing.T) {
	p, e := newTestEnclave(t, "code", Config{})
	blob, err := e.Seal([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	// Different code on the same platform must not unseal.
	other, err := p.Load([]byte("evil"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Unseal(blob); !errors.Is(err, ErrSealedCorrupt) {
		t.Errorf("different measurement unsealed: %v", err)
	}
	// Same code on a different platform must not unseal.
	_, foreign := newTestEnclave(t, "code", Config{})
	if _, err := foreign.Unseal(blob); !errors.Is(err, ErrSealedCorrupt) {
		t.Errorf("different platform unsealed: %v", err)
	}
}

func TestMemoryAccounting(t *testing.T) {
	_, e := newTestEnclave(t, "c", Config{MemoryLimit: 100})
	if err := e.Alloc(60); err != nil {
		t.Fatalf("Alloc(60): %v", err)
	}
	if err := e.Alloc(50); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Alloc beyond limit: %v", err)
	}
	if err := e.Alloc(40); err != nil {
		t.Fatalf("Alloc(40): %v", err)
	}
	if e.MemoryUsed() != 100 || e.MemoryPeak() != 100 {
		t.Fatalf("used=%d peak=%d, want 100/100", e.MemoryUsed(), e.MemoryPeak())
	}
	e.Free(70)
	if e.MemoryUsed() != 30 {
		t.Fatalf("used=%d after Free, want 30", e.MemoryUsed())
	}
	if e.MemoryPeak() != 100 {
		t.Fatalf("peak=%d must persist, want 100", e.MemoryPeak())
	}
	if err := e.Alloc(-1); err == nil {
		t.Error("negative allocation must fail")
	}
	e.Free(1000) // over-free clamps at zero
	if e.MemoryUsed() != 0 {
		t.Fatalf("used=%d after over-free, want 0", e.MemoryUsed())
	}
}

func TestDefaultMemoryLimit(t *testing.T) {
	_, e := newTestEnclave(t, "c", Config{})
	if err := e.Alloc(DefaultMemoryLimit); err != nil {
		t.Fatalf("alloc to default limit: %v", err)
	}
	if err := e.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatal("default limit not enforced")
	}
}

func TestPagedPeakTracksEPCOverflow(t *testing.T) {
	_, e := newTestEnclave(t, "c", Config{})
	if err := e.Alloc(EPCSize - 10); err != nil {
		t.Fatal(err)
	}
	if e.PagedPeak() != 0 {
		t.Fatalf("paged peak %d within EPC, want 0", e.PagedPeak())
	}
	if err := e.Alloc(110); err != nil {
		t.Fatalf("SGX2 expansion must allow EPC overflow: %v", err)
	}
	if e.PagedPeak() != 100 {
		t.Fatalf("paged peak %d, want 100", e.PagedPeak())
	}
	e.Free(EPCSize)
	if e.PagedPeak() != 100 {
		t.Fatal("paged peak must be a high-water mark")
	}
}

func TestLoadRejectsNegativeLimit(t *testing.T) {
	p, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Load([]byte("c"), Config{MemoryLimit: -1}); err == nil {
		t.Fatal("negative limit must fail")
	}
}

package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// twoBoundaryStore returns a FileStore holding two generations: the current
// snapshot at StageLD and the previous boundary at StageMAF.
func twoBoundaryStore(t *testing.T) (*FileStore, *State, *State) {
	t.Helper()
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	older := sampleState()
	older.Stage = StageMAF
	older.LDouble, older.PerLD, older.Combinations = nil, nil, nil
	if err := s.Save(older); err != nil {
		t.Fatalf("Save older: %v", err)
	}
	newer := sampleState()
	if err := s.Save(newer); err != nil {
		t.Fatalf("Save newer: %v", err)
	}
	return s, older, newer
}

// TestFileStoreTornWriteFallback simulates a torn write — the current
// snapshot truncated mid-record — and asserts the store quarantines it and
// falls back to the previous boundary instead of failing the run.
func TestFileStoreTornWriteFallback(t *testing.T) {
	s, older, _ := twoBoundaryStore(t)
	b, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(), b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := s.Load()
	if err != nil {
		t.Fatalf("Load after torn write: %v", err)
	}
	if got.Stage != older.Stage || !reflect.DeepEqual(got.LPrime, older.LPrime) {
		t.Errorf("fallback state = stage %v, want previous boundary %v", got.Stage, older.Stage)
	}
	if desc, ok := s.RecoveredCorruption(); !ok || desc == "" {
		t.Error("RecoveredCorruption not reported after fallback")
	}
	if _, err := os.Stat(s.Path() + corruptSuffix); err != nil {
		t.Errorf("torn snapshot not quarantined: %v", err)
	}

	// The store must stay usable: the next Save establishes a fresh current
	// generation and a clean Load drops the recovery marker.
	fresh := sampleState()
	if err := s.Save(fresh); err != nil {
		t.Fatalf("Save after recovery: %v", err)
	}
	if got, err = s.Load(); err != nil || got.Stage != fresh.Stage {
		t.Fatalf("Load after re-save = (%+v, %v)", got, err)
	}
	if _, ok := s.RecoveredCorruption(); ok {
		t.Error("recovery marker leaked into a clean Load")
	}
}

// TestFileStoreMissingCurrentFallback covers a crash between Save's two
// renames: the current snapshot is gone but the rotated previous boundary
// survives and must be served, flagged as a recovery.
func TestFileStoreMissingCurrentFallback(t *testing.T) {
	s, older, _ := twoBoundaryStore(t)
	if err := os.Remove(s.Path()); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Stage != older.Stage {
		t.Errorf("got stage %v, want previous boundary %v", got.Stage, older.Stage)
	}
	if _, ok := s.RecoveredCorruption(); !ok {
		t.Error("fallback to previous boundary not reported")
	}
}

// TestFileStoreBothGenerationsCorrupt pins the exhausted case: when every
// generation is corrupt the Load fails with the corruption error (the caller
// starts fresh), both bad files are quarantined, and the store keeps working.
func TestFileStoreBothGenerationsCorrupt(t *testing.T) {
	s, _, _ := twoBoundaryStore(t)
	for _, p := range []string{s.Path(), s.Path() + prevSuffix} {
		if err := os.WriteFile(p, []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Load(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load error = %v, want ErrCorrupt", err)
	}
	for _, p := range []string{s.Path() + corruptSuffix, s.Path() + prevSuffix + corruptSuffix} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("corrupt generation not quarantined at %s: %v", p, err)
		}
	}
	if err := s.Save(sampleState()); err != nil {
		t.Fatalf("Save after quarantine: %v", err)
	}
	if _, err := s.Load(); err != nil {
		t.Fatalf("Load after quarantine: %v", err)
	}
}

// TestFileStoreFaultHook drives the disk-full hook through every Save step
// and asserts a failed save never disturbs the generations already on disk.
func TestFileStoreFaultHook(t *testing.T) {
	for _, failAt := range []string{"write", "rotate", "rename"} {
		t.Run(failAt, func(t *testing.T) {
			s, _, newer := twoBoundaryStore(t)
			diskFull := fmt.Errorf("simulated disk full at %s", failAt)
			s.SetFaultHook(func(op string) error {
				if op == failAt {
					return diskFull
				}
				return nil
			})
			next := sampleState()
			next.Stage = StageNone
			if err := s.Save(next); !errors.Is(err, diskFull) {
				t.Fatalf("Save error = %v, want the injected fault", err)
			}
			s.SetFaultHook(nil)
			got, err := s.Load()
			if err != nil {
				t.Fatalf("Load after failed save: %v", err)
			}
			// "write" and "rotate" fail before the rotation, so the newest
			// snapshot survives as current; "rename" fails after it, leaving
			// the rotated fallback as the newest valid boundary.
			if failAt == "rename" {
				if _, ok := s.RecoveredCorruption(); !ok {
					t.Error("post-rotate failure must surface as a recovery")
				}
			} else if got.Stage != newer.Stage {
				t.Errorf("got stage %v, want untouched current %v", got.Stage, newer.Stage)
			}
			if _, err := os.Stat(s.Path() + tmpSuffix); err == nil {
				t.Error("failed save leaked its temp file")
			}
		})
	}
}

// TestBlameSectionRoundTrip pins the trailing blame section: it round-trips
// through the codec, and a record written before the section existed decodes
// with no blame at all.
func TestBlameSectionRoundTrip(t *testing.T) {
	want := blamedState()
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("blame round trip mismatch:\n got %+v\nwant %+v", got.Blamed, want.Blamed)
	}

	// Strip the empty trailing section from a blame-free record to fabricate
	// the pre-section format, re-stitching the length field and CRC.
	old := Encode(sampleState())
	old = old[:len(old)-4-8] // drop CRC trailer and the 8-byte zero count
	lengthOff := 8 + 4       // magic | version
	payloadLen := uint64(len(old) - lengthOff - 8)
	for i := 0; i < 8; i++ {
		old[lengthOff+i] = byte(payloadLen >> (56 - 8*i))
	}
	old = append(old, 0, 0, 0, 0)
	restitchCRC(old)
	got, err = Decode(old)
	if err != nil {
		t.Fatalf("Decode pre-section record: %v", err)
	}
	if got.Blamed != nil {
		t.Errorf("pre-section record decoded with blame: %+v", got.Blamed)
	}
}

// TestFileStoreVersionSkewIsNotCorruption covers an upgrade: both generations
// were written by a build with an older format version. Load must report
// ErrVersion without quarantining either file or falling back, and the next
// Save must replace them.
func TestFileStoreVersionSkewIsNotCorruption(t *testing.T) {
	s, _, _ := twoBoundaryStore(t)
	for _, p := range []string{s.Path(), s.Path() + prevSuffix} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(magic)+3] = Version - 1
		restitchCRC(b)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Load(); !errors.Is(err, ErrVersion) {
		t.Fatalf("Load error = %v, want ErrVersion", err)
	}
	if _, ok := s.RecoveredCorruption(); ok {
		t.Error("version skew reported as a recovery")
	}
	for _, p := range []string{s.Path() + corruptSuffix, s.Path() + prevSuffix + corruptSuffix} {
		if _, err := os.Stat(p); err == nil {
			t.Errorf("version-skewed generation quarantined at %s", p)
		}
	}
	want := sampleState()
	if err := s.Save(want); err != nil {
		t.Fatalf("Save over the old version: %v", err)
	}
	got, err := s.Load()
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Load after Save = (%+v, %v), want the new state", got, err)
	}
}

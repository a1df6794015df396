package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
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

// loggedRun returns a Phase-3 run's states over one saving sequence: the
// StageLD base with no combinations, then one more completed combination
// per state, 31 in all.
func loggedRun() []*State {
	full := collusionState(100, 40, 12)
	out := make([]*State, 0, len(full.Combinations)+1)
	for k := 0; k <= len(full.Combinations); k++ {
		st := *full
		st.Combinations = full.Combinations[:k:k]
		out = append(out, &st)
	}
	return out
}

func openStore(t *testing.T, dir string) *FileStore {
	t.Helper()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	return s
}

// recordOps installs a fault hook that records each step Save takes.
func recordOps(s *FileStore) *[]string {
	var ops []string
	s.SetFaultHook(func(op string) error {
		ops = append(ops, op)
		return nil
	})
	return &ops
}

// TestFileStoreLogRoundTrip saves one base and 31 appends and, after every
// Save, loads the directory through a fresh FileStore: it must return the
// saved state exactly, while the base file is never rewritten.
func TestFileStoreLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	ops := recordOps(s)
	var base []byte
	for k, st := range loggedRun() {
		*ops = nil
		if err := s.Save(st); err != nil {
			t.Fatalf("save %d: %v", k, err)
		}
		if k == 0 {
			if base, _ = os.ReadFile(s.Path()); base == nil {
				t.Fatal("no base written")
			}
		} else if want := []string{"append"}; !reflect.DeepEqual(*ops, want) {
			t.Fatalf("save %d took steps %v, want %v", k, *ops, want)
		}
		got, err := openStore(t, dir).Load()
		if err != nil {
			t.Fatalf("load after save %d: %v", k, err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("load after save %d: %d combinations, want %d, or another field differs", k, len(got.Combinations), len(st.Combinations))
		}
	}
	if now, _ := os.ReadFile(s.Path()); !bytes.Equal(now, base) {
		t.Error("an append rewrote the base")
	}
}

// TestFileStoreTornLogTail cuts the log at every byte offset inside its last
// frame, as a crash during that append would: Load must return the base plus
// every earlier frame, and report no recovery — a torn tail is the expected
// end of an interrupted append, not corruption.
func TestFileStoreTornLogTail(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	run := loggedRun()[:4]
	for _, st := range run {
		if err := s.Save(st); err != nil {
			t.Fatal(err)
		}
	}
	log, err := os.ReadFile(s.Path() + logSuffix)
	if err != nil {
		t.Fatal(err)
	}
	last := len(log) - len(encodeFrame(run[3].Combinations[2:]))
	want := run[2]
	for cut := last; cut < len(log); cut++ {
		if err := os.WriteFile(s.Path()+logSuffix, log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r := openStore(t, dir)
		got, err := r.Load()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: %d combinations, want the %d of the intact frames", cut, len(got.Combinations), len(want.Combinations))
		}
		if desc, ok := r.RecoveredCorruption(); ok {
			t.Fatalf("cut %d: torn log tail reported as a recovery: %s", cut, desc)
		}
	}
}

// TestFileStoreCorruptBaseIgnoresItsLog corrupts the current base while its
// log holds frames: the base and its log are quarantined, and Load returns
// the previous base with the previous log — never a frame of the current
// log grafted onto the previous base.
func TestFileStoreCorruptBaseIgnoresItsLog(t *testing.T) {
	dir := t.TempDir()
	older := loggedRun()[:3]
	s := openStore(t, dir)
	for _, st := range older {
		if err := s.Save(st); err != nil {
			t.Fatal(err)
		}
	}
	// A successor's run of another shape: its first save is a new base
	// (rotating the older one and its log), its second an append.
	newer := collusionState(100, 40, 12)
	newer.LPrime = newer.LPrime[1:]
	for i := range newer.Combinations {
		newer.Combinations[i].Power = 0.75
	}
	s = openStore(t, dir)
	for k := 0; k <= 2; k++ {
		st := *newer
		st.Combinations = newer.Combinations[:k]
		if err := s.Save(&st); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(s.Path(), []byte("torn base"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, older[2]) {
		t.Errorf("fallback holds %d combinations (LPrime %d SNPs), want the previous base and its own log (%d)",
			len(got.Combinations), len(got.LPrime), len(older[2].Combinations))
	}
	if _, ok := s.RecoveredCorruption(); !ok {
		t.Error("fallback not reported")
	}
	for _, p := range []string{s.Path() + corruptSuffix, s.Path() + logSuffix + corruptSuffix} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("not quarantined at %s: %v", p, err)
		}
	}
	if _, err := os.Stat(s.Path() + logSuffix); err == nil {
		t.Error("the corrupt base's log is still live")
	}
}

// TestFileStoreFailedAppend fails an append through the fault hook: Save
// returns the error, the directory still holds the last good boundary, and
// the next Save writes a new base instead of appending behind a frame that
// may be torn.
func TestFileStoreFailedAppend(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	run := loggedRun()
	for _, st := range run[:2] {
		if err := s.Save(st); err != nil {
			t.Fatal(err)
		}
	}
	diskFull := errors.New("simulated disk full at append")
	s.SetFaultHook(func(op string) error {
		if op == "append" {
			return diskFull
		}
		return nil
	})
	if err := s.Save(run[2]); !errors.Is(err, diskFull) {
		t.Fatalf("Save error = %v, want the injected fault", err)
	}
	if got, err := openStore(t, dir).Load(); err != nil || !reflect.DeepEqual(got, run[1]) {
		t.Fatalf("after the failed append the directory holds (%v, %v), want the last good boundary", got, err)
	}

	ops := recordOps(s)
	if err := s.Save(run[3]); err != nil {
		t.Fatal(err)
	}
	if want := []string{"write", "rotate", "rename", "sync"}; !reflect.DeepEqual(*ops, want) {
		t.Errorf("save after a failed append took steps %v, want a new base %v", *ops, want)
	}
	if got, err := openStore(t, dir).Load(); err != nil || !reflect.DeepEqual(got, run[3]) {
		t.Fatalf("Load after the new base = (%v, %v)", got, err)
	}
}

// TestFileStoreClearRemovesLogs checks the directory after Clear and after
// ClearAll when the root and a namespace each hold two generations with
// logs and quarantined evidence: Clear removes exactly the root's base,
// previous base and both logs; ClearAll also the namespace's; neither
// touches a ".corrupt" file.
func TestFileStoreClearRemovesLogs(t *testing.T) {
	dir := t.TempDir()
	root := openStore(t, dir)
	ns := root.Namespace("cafe")
	run := loggedRun()[:3]
	for _, s := range []Store{root, ns} {
		for _, st := range run {
			if err := s.Save(st); err != nil {
				t.Fatal(err)
			}
		}
		// A second base of another stage rotates the first and its log.
		if err := s.Save(run[0]); err != nil {
			t.Fatal(err)
		}
		if err := s.Save(run[2]); err != nil {
			t.Fatal(err)
		}
	}
	evidence := []string{"assessment.ckpt.corrupt", "assessment.ckpt.log.corrupt"}
	for _, name := range evidence {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("evidence"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	nsFiles := []string{"assessment-cafe.ckpt", "assessment-cafe.ckpt.log", "assessment-cafe.ckpt.prev", "assessment-cafe.ckpt.prev.log"}
	want := append(append([]string{}, nsFiles...), evidence...)
	want = append(want, "assessment.ckpt", "assessment.ckpt.log", "assessment.ckpt.prev", "assessment.ckpt.prev.log")
	sort.Strings(want)
	if got := files(); !reflect.DeepEqual(got, want) {
		t.Fatalf("before Clear the directory holds %v, want %v", got, want)
	}

	if err := root.Clear(); err != nil {
		t.Fatal(err)
	}
	want = append(append([]string{}, nsFiles...), evidence...)
	sort.Strings(want)
	if got := files(); !reflect.DeepEqual(got, want) {
		t.Errorf("after Clear the directory holds %v, want %v", got, want)
	}
	if err := root.ClearAll(); err != nil {
		t.Fatal(err)
	}
	if got := files(); !reflect.DeepEqual(got, evidence) {
		t.Errorf("after ClearAll the directory holds %v, want only %v", got, evidence)
	}
}

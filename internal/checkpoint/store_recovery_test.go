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

// twoBoundaryStore returns a FileStore whose file holds two boundaries: the
// previous one at StageMAF as its first record, and the current one at
// StageLD appended behind it as a second state record.
func twoBoundaryStore(t *testing.T) (*FileStore, *State, *State) {
	t.Helper()
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	older := sampleState()
	older.Stage = StageMAF
	older.PerLD, older.Combinations = nil, nil
	if err := s.Save(older); err != nil {
		t.Fatalf("Save older: %v", err)
	}
	newer := sampleState()
	if err := s.Save(newer); err != nil {
		t.Fatalf("Save newer: %v", err)
	}
	return s, older, newer
}

// dirFiles lists the names in dir, sorted.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
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

// TestFileStoreTornWriteFallback cuts the file at every byte inside its last
// state record, as a crash while appending it would: Load must return the
// boundary before it and report no recovery, and the next Save must rewrite
// the file rather than append behind the torn bytes.
func TestFileStoreTornWriteFallback(t *testing.T) {
	s, older, newer := twoBoundaryStore(t)
	b, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	last := len(b) - len(Encode(newer))
	for cut := last; cut < len(b); cut++ {
		if err := os.WriteFile(s.Path(), b[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := s.Load()
		if err != nil {
			t.Fatalf("cut %d: Load after torn write: %v", cut, err)
		}
		if !statesEqual(got, older) {
			t.Fatalf("cut %d: got stage %v, want the previous boundary %v", cut, got.Stage, older.Stage)
		}
		if desc, ok := s.RecoveredCorruption(); ok {
			t.Fatalf("cut %d: torn tail reported as a recovery: %s", cut, desc)
		}
	}

	ops := recordOps(s)
	if err := s.Save(newer); err != nil {
		t.Fatalf("Save after recovery: %v", err)
	}
	if want := []string{"write", "rename", "sync"}; !reflect.DeepEqual(*ops, want) {
		t.Errorf("save after a Load took steps %v, want a rewrite %v", *ops, want)
	}
	if now, _ := os.ReadFile(s.Path()); !bytes.Equal(now, Encode(newer)) {
		t.Error("the rewrite kept the torn bytes")
	}
}

// TestFileStoreCorruptFrameFallsBack flips a bit inside a whole frame of
// each kind: Load must return the boundary before it, flagged, and never
// fold a later frame onto that earlier boundary. The next Save rewrites the
// file and a clean Load drops the flag.
func TestFileStoreCorruptFrameFallsBack(t *testing.T) {
	run := loggedRun()
	maf := *run[0]
	maf.Stage, maf.PerLD = StageMAF, nil
	// A StageMAF record, the StageLD record, two combinations frames.
	states := []*State{&maf, run[0], run[1], run[2]}
	for _, tc := range []struct {
		name string
		// corrupt indexes the save whose frame gets a flipped bit, want the
		// state Load must return.
		corrupt, want int
	}{
		{"record", 1, 0},
		{"combinations", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir)
			var ends []int
			for _, st := range states {
				if err := s.Save(st); err != nil {
					t.Fatal(err)
				}
				info, err := os.Stat(s.Path())
				if err != nil {
					t.Fatal(err)
				}
				ends = append(ends, int(info.Size()))
			}
			b, err := os.ReadFile(s.Path())
			if err != nil {
				t.Fatal(err)
			}
			b[ends[tc.corrupt]-6] ^= 0x10 // inside the frame, past its length field
			if err := os.WriteFile(s.Path(), b, 0o644); err != nil {
				t.Fatal(err)
			}

			got, err := s.Load()
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if want := states[tc.want]; !statesEqual(got, want) {
				t.Errorf("Load returned stage %v with %d combinations, want stage %v with %d",
					got.Stage, len(got.Combinations), want.Stage, len(want.Combinations))
			}
			if _, ok := s.RecoveredCorruption(); !ok {
				t.Error("fallback past a corrupt frame not reported")
			}

			last := states[len(states)-1]
			if err := s.Save(last); err != nil {
				t.Fatal(err)
			}
			if got, err := s.Load(); err != nil || !reflect.DeepEqual(got, last) {
				t.Fatalf("Load after re-save = (%+v, %v)", got, err)
			}
			if _, ok := s.RecoveredCorruption(); ok {
				t.Error("recovery flag leaked into a clean Load")
			}
		})
	}
}

// TestFileStoreCrashMidRewrite covers a crash between a rewrite's write and
// its rename: a temporary file sits beside the checkpoint. Load never reads
// it — it returns the file's own state, or ErrNotFound when the crashed
// rewrite was the first — and the next rewrite replaces it.
func TestFileStoreCrashMidRewrite(t *testing.T) {
	s, _, newer := twoBoundaryStore(t)
	tmp := s.Path() + tmpSuffix
	if err := os.WriteFile(tmp, Encode(stateFor("half"))[:40], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load()
	if err != nil || !reflect.DeepEqual(got, newer) {
		t.Fatalf("Load beside a stray temporary = (%+v, %v), want the file's state", got, err)
	}
	if err := s.Save(newer); err != nil {
		t.Fatal(err)
	}
	if files := dirFiles(t, filepath.Dir(s.Path())); !reflect.DeepEqual(files, []string{filepath.Base(s.Path())}) {
		t.Errorf("after the rewrite the directory holds %v", files)
	}

	if err := os.Rename(s.Path(), tmp); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load with only a temporary = %v, want ErrNotFound", err)
	}
}

// TestFileStoreMissingCurrentPrevFails covers a missing checkpoint file with
// a ".prev" file, which an older two-generation layout left, beside it. With
// one file there is nothing to fall back to: the leftover is never read and
// Load is ErrNotFound, a fresh start. Only a missing file means that: a
// corrupt one is ErrCorrupt, not flagged as a recovery and replaced by the
// next Save, and one that cannot be read is an I/O error, which the caller
// treats as run-fatal rather than as "nothing to resume".
func TestFileStoreMissingCurrentPrevFails(t *testing.T) {
	// missingWithPrev leaves the store without its file and with the
	// older boundary's record at ".prev".
	missingWithPrev := func(t *testing.T) *FileStore {
		t.Helper()
		s, older, _ := twoBoundaryStore(t)
		if err := os.Remove(s.Path()); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.Path()+".prev", Encode(older), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Load(); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Load beside a leftover .prev = (%+v, %v), want ErrNotFound", got, err)
		}
		return s
	}
	t.Run("corrupt", func(t *testing.T) {
		s := missingWithPrev(t)
		if err := os.WriteFile(s.Path(), []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Load(); !errors.Is(err, ErrCorrupt) || got != nil {
			t.Fatalf("Load = (%+v, %v), want ErrCorrupt", got, err)
		}
		if _, ok := s.RecoveredCorruption(); ok {
			t.Error("a corrupt file reported as a recovery")
		}
		want := sampleState()
		if err := s.Save(want); err != nil {
			t.Fatal(err)
		}
		if got, err := openStore(t, filepath.Dir(s.Path())).Load(); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Load after the rewrite = (%+v, %v)", got, err)
		}
	})
	t.Run("unreadable", func(t *testing.T) {
		s := missingWithPrev(t)
		if err := os.Mkdir(s.Path(), 0o755); err != nil {
			t.Fatal(err)
		}
		_, err := s.Load()
		if err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) {
			t.Fatalf("Load error = %v, want the I/O error", err)
		}
		if _, ok := s.RecoveredCorruption(); ok {
			t.Error("an unreadable file reported as a recovery")
		}
	})
}

// TestFileStoreBothGenerationsCorrupt flips a bit inside both boundary
// records the file holds. The first record is bad, so nothing is left to
// fall back to: Load is ErrCorrupt, not flagged as a recovery, no file is
// set aside beside the checkpoint, and the next Save rewrites the file.
func TestFileStoreBothGenerationsCorrupt(t *testing.T) {
	s, older, _ := twoBoundaryStore(t)
	b, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	for _, end := range []int{len(Encode(older)), len(b)} {
		b[end-6] ^= 0x10 // inside the record, before its CRC
	}
	if err := os.WriteFile(s.Path(), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Load(); !errors.Is(err, ErrCorrupt) || got != nil {
		t.Fatalf("Load = (%+v, %v), want ErrCorrupt", got, err)
	}
	if _, ok := s.RecoveredCorruption(); ok {
		t.Error("a corrupt first record reported as a recovery")
	}
	if files := dirFiles(t, filepath.Dir(s.Path())); !reflect.DeepEqual(files, []string{filepath.Base(s.Path())}) {
		t.Errorf("after the corrupt Load the directory holds %v", files)
	}
	ops := recordOps(s)
	fresh := sampleState()
	if err := s.Save(fresh); err != nil {
		t.Fatalf("Save after ErrCorrupt: %v", err)
	}
	if want := []string{"write", "rename", "sync"}; !reflect.DeepEqual(*ops, want) {
		t.Errorf("save after ErrCorrupt took steps %v, want a rewrite %v", *ops, want)
	}
	if got, err := openStore(t, filepath.Dir(s.Path())).Load(); err != nil || !reflect.DeepEqual(got, fresh) {
		t.Fatalf("Load after the rewrite = (%+v, %v)", got, err)
	}
}

// TestFileStoreFaultHook fails a Save at every step it can take — a
// rewrite's "write", "rename" and "sync" from a fresh instance, an append
// from the instance that wrote the file — and asserts the last durable
// boundary stays loadable, no temporary file is left, and the next Save
// rewrites the file.
func TestFileStoreFaultHook(t *testing.T) {
	for _, failAt := range []string{"write", "rename", "sync", "append"} {
		t.Run(failAt, func(t *testing.T) {
			s, _, newer := twoBoundaryStore(t)
			if failAt != "append" {
				s = openStore(t, filepath.Dir(s.Path()))
			}
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
			// A fault at "sync" strikes after the rename: the new file is in
			// place, only its directory entry is not yet flushed.
			want := newer
			if failAt == "sync" {
				want = next
			}
			got, err := openStore(t, filepath.Dir(s.Path())).Load()
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("Load after the failed save = (%+v, %v), want stage %v", got, err, want.Stage)
			}
			if files := dirFiles(t, filepath.Dir(s.Path())); !reflect.DeepEqual(files, []string{filepath.Base(s.Path())}) {
				t.Errorf("after the failed save the directory holds %v", files)
			}
			ops := recordOps(s)
			if err := s.Save(next); err != nil {
				t.Fatal(err)
			}
			if want := []string{"write", "rename", "sync"}; !reflect.DeepEqual(*ops, want) {
				t.Errorf("save after a failed one took steps %v, want a rewrite %v", *ops, want)
			}
		})
	}
}

// TestBlameSectionRoundTrip pins the trailing blame section: it round-trips
// through the codec, and a record that ends before it is corrupt.
func TestBlameSectionRoundTrip(t *testing.T) {
	want := blamedState()
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("blame round trip mismatch:\n got %+v\nwant %+v", got.Blamed, want.Blamed)
	}

	// Strip the empty trailing section from a blame-free record, re-stitching
	// the length field and CRC so only the missing section is wrong.
	short := Encode(sampleState())
	short = short[:len(short)-4-8] // drop CRC trailer and the 8-byte zero count
	lengthOff := 8 + 4             // magic | version
	payloadLen := uint64(len(short) - lengthOff - 8)
	for i := 0; i < 8; i++ {
		short[lengthOff+i] = byte(payloadLen >> (56 - 8*i))
	}
	short = append(short, 0, 0, 0, 0)
	restitchCRC(short)
	if got, err := Decode(short); !errors.Is(err, ErrCorrupt) || got != nil {
		t.Fatalf("Decode of a record without its blame section = (%+v, %v), want ErrCorrupt", got, err)
	}
}

// TestFileStoreVersionSkewIsNotCorruption covers an upgrade: the file's
// first record was written by a build with an older format version. Load
// must report ErrVersion without a recovery flag, leave the file as it is,
// and the next Save must replace it.
func TestFileStoreVersionSkewIsNotCorruption(t *testing.T) {
	s, older, _ := twoBoundaryStore(t)
	b, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	first := len(Encode(older))
	b[len(magic)+3] = Version - 1
	restitchCRC(b[:first])
	if err := os.WriteFile(s.Path(), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(); !errors.Is(err, ErrVersion) {
		t.Fatalf("Load error = %v, want ErrVersion", err)
	}
	if _, ok := s.RecoveredCorruption(); ok {
		t.Error("version skew reported as a recovery")
	}
	if now, _ := os.ReadFile(s.Path()); !bytes.Equal(now, b) {
		t.Error("Load touched the version-skewed file")
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
	full := collusionState(100, 12)
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

// TestFileStoreLogRoundTrip saves one state record and 31 appends and, after
// every Save, loads the directory through a fresh FileStore: it must return
// the saved state exactly, while every save after the first only appends to
// the file.
func TestFileStoreLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	ops := recordOps(s)
	var before []byte
	for k, st := range loggedRun() {
		*ops = nil
		if err := s.Save(st); err != nil {
			t.Fatalf("save %d: %v", k, err)
		}
		now, err := os.ReadFile(s.Path())
		if err != nil {
			t.Fatal(err)
		}
		if k > 0 {
			if want := []string{"append"}; !reflect.DeepEqual(*ops, want) {
				t.Fatalf("save %d took steps %v, want %v", k, *ops, want)
			}
			if !bytes.HasPrefix(now, before) || len(now) == len(before) {
				t.Fatalf("save %d did not append to the file", k)
			}
		}
		before = now
		got, err := openStore(t, dir).Load()
		if err != nil {
			t.Fatalf("load after save %d: %v", k, err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("load after save %d: %d combinations, want %d, or another field differs", k, len(got.Combinations), len(st.Combinations))
		}
	}
}

// TestFileStoreTornLogTail cuts the file at every byte offset inside its
// last frame, for both frame kinds, as a crash during that append would:
// Load must return every earlier boundary and report no recovery — a torn
// tail is the expected end of an interrupted append, not corruption.
func TestFileStoreTornLogTail(t *testing.T) {
	run := loggedRun()[:4]
	blamed := *run[2]
	blamed.Blamed = []BlameRecord{{Member: "gdo-3", Phase: "ld", Query: "pairs", Kind: "invalid-payload"}}
	for _, tc := range []struct {
		name  string
		last  *State
		frame []byte // what saving last appends
	}{
		{"combinations", run[3], encodeFrame(run[3].Combinations[2:])},
		{"record", &blamed, Encode(&blamed)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir)
			for _, st := range append(run[:3:3], tc.last) {
				if err := s.Save(st); err != nil {
					t.Fatal(err)
				}
			}
			b, err := os.ReadFile(s.Path())
			if err != nil {
				t.Fatal(err)
			}
			frame := tc.frame
			if !bytes.HasSuffix(b, frame) {
				t.Fatal("the last save did not append the expected frame")
			}
			want := run[2]
			for cut := len(b) - len(frame); cut < len(b); cut++ {
				if err := os.WriteFile(s.Path(), b[:cut], 0o644); err != nil {
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
					t.Fatalf("cut %d: torn tail reported as a recovery: %s", cut, desc)
				}
			}
		})
	}
}

// TestFileStoreCorruptBaseIgnoresItsLog corrupts the file's first record
// while frames follow it, and replaces the whole file with garbage: either
// way Load is ErrCorrupt, with no recovery flag and no frame read onto
// anything, and the next Save replaces the file.
func TestFileStoreCorruptBaseIgnoresItsLog(t *testing.T) {
	run := loggedRun()[:3]
	for _, tc := range []struct {
		name    string
		corrupt func(b []byte) []byte
	}{
		{"first record", func(b []byte) []byte { b[len(Encode(run[0]))-6] ^= 0x10; return b }},
		{"garbage", func([]byte) []byte { return []byte("not a checkpoint") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir)
			for _, st := range run {
				if err := s.Save(st); err != nil {
					t.Fatal(err)
				}
			}
			b, err := os.ReadFile(s.Path())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.Path(), tc.corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err := s.Load(); !errors.Is(err, ErrCorrupt) || got != nil {
				t.Fatalf("Load = (%+v, %v), want ErrCorrupt", got, err)
			}
			if _, ok := s.RecoveredCorruption(); ok {
				t.Error("a corrupt first record reported as a recovery")
			}
			ops := recordOps(s)
			if err := s.Save(run[1]); err != nil {
				t.Fatal(err)
			}
			if want := []string{"write", "rename", "sync"}; !reflect.DeepEqual(*ops, want) {
				t.Errorf("save after ErrCorrupt took steps %v, want a rewrite %v", *ops, want)
			}
			if got, err := openStore(t, dir).Load(); err != nil || !reflect.DeepEqual(got, run[1]) {
				t.Fatalf("Load after the rewrite = (%+v, %v)", got, err)
			}
		})
	}
}

// TestFileStoreFailedAppend fails an append through the fault hook: Save
// returns the error, the file still holds the last good boundary, and the
// next Save rewrites the file instead of appending behind a frame that may
// be torn.
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
	if want := []string{"write", "rename", "sync"}; !reflect.DeepEqual(*ops, want) {
		t.Errorf("save after a failed append took steps %v, want a rewrite %v", *ops, want)
	}
	if got, err := openStore(t, dir).Load(); err != nil || !reflect.DeepEqual(got, run[3]) {
		t.Fatalf("Load after the rewrite = (%v, %v)", got, err)
	}
}

// TestFileStoreClearRemovesLogs checks the directory after saves of every
// kind, after Clear and after ClearAll. The root and a namespace each hold
// one file whatever they saved; files a build before the one-file layout
// left beside them (".prev", ".log", ".corrupt") are never read. Clear
// removes exactly the root's file; ClearAll every checkpoint file, those
// leftovers included, and nothing else.
func TestFileStoreClearRemovesLogs(t *testing.T) {
	dir := t.TempDir()
	root := openStore(t, dir)
	ns := root.Namespace("cafe")
	run := loggedRun()[:3]
	for _, s := range []Store{root, ns} {
		// Appends, then a state record of another stage, then a rewrite.
		for _, st := range append(run, run[0], run[2]) {
			if err := s.Save(st); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Load(); err != nil {
			t.Fatal(err)
		}
		if err := s.Save(run[1]); err != nil {
			t.Fatal(err)
		}
	}
	leftovers := []string{"assessment-cafe.ckpt.prev.log", "assessment.ckpt.corrupt", "assessment.ckpt.log", "assessment.ckpt.prev"}
	for _, name := range append(leftovers, "notes.txt") {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("left over"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := append([]string{"assessment-cafe.ckpt", "assessment.ckpt", "notes.txt"}, leftovers...)
	sort.Strings(want)
	if got := dirFiles(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("before Clear the directory holds %v, want %v", got, want)
	}
	if got, err := root.Load(); err != nil || !reflect.DeepEqual(got, run[1]) {
		t.Fatalf("Load beside the leftovers = (%v, %v)", got, err)
	}

	if err := root.Clear(); err != nil {
		t.Fatal(err)
	}
	want = append([]string{"assessment-cafe.ckpt", "notes.txt"}, leftovers...)
	sort.Strings(want)
	if got := dirFiles(t, dir); !reflect.DeepEqual(got, want) {
		t.Errorf("after Clear the directory holds %v, want %v", got, want)
	}
	if err := root.ClearAll(); err != nil {
		t.Fatal(err)
	}
	if got := dirFiles(t, dir); !reflect.DeepEqual(got, []string{"notes.txt"}) {
		t.Errorf("after ClearAll the directory holds %v, want only notes.txt", got)
	}
}

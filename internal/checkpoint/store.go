package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Store is pluggable checkpoint persistence. A run holds at most one current
// checkpoint: Save replaces it atomically, Load returns the latest one (or
// ErrNotFound), and Clear removes it — the leader clears on successful
// completion so a finished run cannot be "resumed".
//
// Placement is a deployment concern the interface deliberately leaves open:
// the in-process election loop's failover tests share one MemStore between
// successive leaders, while the CLIs point a FileStore at a directory (which must be
// reachable by whichever node resumes — the same machine after a restart, or
// replicated storage in a real multi-host deployment).
type Store interface {
	// Save persists st as the current checkpoint, replacing any previous
	// one. The state must not be mutated while Save runs. Between two saves
	// of one Stage, a run's state only grows: the later state carries the
	// earlier one's Combinations as its prefix and every other field
	// unchanged. A store may rely on that to persist only the new
	// combinations; any other sequence of states is still saved correctly,
	// just in full.
	Save(st *State) error
	// Load returns the current checkpoint, or ErrNotFound when none exists.
	Load() (*State, error)
	// Clear removes the current checkpoint; clearing an empty store is not
	// an error.
	Clear() error
}

// Namespacer is implemented by stores that can carve out independent
// sub-stores under one shared root. A long-lived assessment service runs many
// concurrent protocols over one store; namespacing each run by its
// fingerprint keeps their snapshots from overwriting each other while still
// sharing the root's placement (one directory, one replication policy).
// Namespace is stable: the same name always returns the same sub-store, so
// concurrent runs of one namespace serialize on one instance's lock.
type Namespacer interface {
	// Namespace returns the sub-store for name; the empty name is the root
	// store itself. Names are sanitized by the implementation, so any
	// caller-chosen key (a hex fingerprint, a tenant id) is acceptable.
	Namespace(name string) Store
}

// MemStore is an in-memory Store for tests and the in-process failover
// runner. It round-trips through the codec on every Save/Load, so states
// never alias between the saver and the loader and the encoder stays on the
// hot path of every checkpointing test.
type MemStore struct {
	mu       sync.Mutex
	data     []byte
	children map[string]*MemStore
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Save implements Store.
func (s *MemStore) Save(st *State) error {
	b := Encode(st)
	s.mu.Lock()
	s.data = b
	s.mu.Unlock()
	return nil
}

// Load implements Store.
func (s *MemStore) Load() (*State, error) {
	s.mu.Lock()
	b := s.data
	s.mu.Unlock()
	if b == nil {
		return nil, ErrNotFound
	}
	return Decode(b)
}

// Clear implements Store.
func (s *MemStore) Clear() error {
	s.mu.Lock()
	s.data = nil
	s.mu.Unlock()
	return nil
}

// Namespace implements Namespacer: sub-stores are independent MemStores,
// created on first use and stable across calls.
func (s *MemStore) Namespace(name string) Store {
	if name == "" {
		return s
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.children == nil {
		s.children = make(map[string]*MemStore)
	}
	child, ok := s.children[name]
	if !ok {
		child = NewMemStore()
		s.children[name] = child
	}
	return child
}

// ClearAll removes the root snapshot and every namespaced sub-store's state.
func (s *MemStore) ClearAll() error {
	s.mu.Lock()
	children := make([]*MemStore, 0, len(s.children))
	for _, c := range s.children {
		children = append(children, c)
	}
	s.data = nil
	s.mu.Unlock()
	for _, c := range children {
		if err := c.ClearAll(); err != nil {
			return err
		}
	}
	return nil
}

// Recoverer is implemented by stores that can transparently fall back past a
// corrupt record to an older valid boundary. Callers that care (the resume
// path surfaces a CorruptionRecovered marker in the report) probe it with a
// type assertion after a successful Load.
type Recoverer interface {
	// RecoveredCorruption describes the most recent Load's fallback, or
	// returns false when the last Load read every whole record cleanly.
	RecoveredCorruption() (string, bool)
}

// FileStore persists the checkpoint in a directory, one file per namespace:
// a state record followed by appended frames, each frame one phase boundary.
// A frame is either a whole state record, which replaces the state before
// it, or a combinations frame, which adds Phase 3 combinations to it.
//
// While this instance has written every byte of the file, a Save appends: a
// combinations frame when st only adds combinations to the state last
// written (same fingerprint, providers, stage and blame count, and the
// combinations already on disk as its prefix), a state record otherwise.
// An append is one write and one fsync. Any other Save — the first after
// opening the store, after a Load or after a failed write — rewrites the
// file: write a temporary file, fsync it, rename it over the file, and fsync
// the directory. No crash instant leaves the file missing.
//
// Load folds the frames in order and stops at the first bad one (see
// decodeFile). A frame that runs past the end of the file is what a crash
// during an append leaves, and is dropped silently; a whole frame that fails
// its CRC or decode returns the boundary before it, and RecoveredCorruption
// reports the fallback. A bad first record is ErrCorrupt, and one written by
// a build with another format version ErrVersion; the next Save replaces
// either.
type FileStore struct {
	path string
	dir  string

	mu        sync.Mutex
	recovered string
	faultHook func(op string) error
	children  map[string]*FileStore
	tail      logTail
}

// logTail is what a FileStore remembers of the state it last persisted
// itself, enough to recognise a Save that only adds combinations. It is
// constant-size: a daemon keeps every namespace it has opened.
type logTail struct {
	// ok is set once this instance has written every byte of the file; a
	// Load or a failed write clears it.
	ok bool
	// logged is the number of combinations in the file's state, and hash is
	// prefixHash(st, logged) of the state last written.
	logged int
	hash   uint64
}

// File names used inside the store directory.
const (
	checkpointFile = "assessment.ckpt"
	tmpSuffix      = ".tmp"
)

// NewFileStore opens (creating if needed) a directory-backed store.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &FileStore{path: filepath.Join(dir, checkpointFile), dir: dir}, nil
}

// Path returns the checkpoint file location.
func (s *FileStore) Path() string { return s.path }

// SetFaultHook installs a hook called before each durability-relevant step
// of Save ("write", "rename", "sync" for a rewrite, "append" for an appended
// frame); a non-nil return aborts the save with that error. Tests use it to
// simulate disk-full and torn-write conditions at exact points of the
// persistence sequence.
func (s *FileStore) SetFaultHook(hook func(op string) error) {
	s.mu.Lock()
	s.faultHook = hook
	s.mu.Unlock()
}

func (s *FileStore) fault(op string) error {
	if s.faultHook == nil {
		return nil
	}
	return s.faultHook(op)
}

// Save implements Store, appending a frame while this instance has written
// the whole file and rewriting the file otherwise. The whole sequence runs
// under the instance lock: concurrent savers of one store (the service's
// coalesced requests, a test's parallel writers) are serialized rather than
// interleaving their steps.
func (s *FileStore) Save(st *State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tail
	s.tail = logTail{} // until this save is durable
	n := len(st.Combinations)
	var err error
	switch {
	case !t.ok:
		err = s.rewrite(Encode(st))
	case n > t.logged && prefixHash(st, t.logged) == t.hash:
		err = s.appendFrame(encodeFrame(st.Combinations[t.logged:]))
	default:
		err = s.appendFrame(Encode(st))
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.tail = logTail{ok: true, logged: n, hash: prefixHash(st, n)}
	return nil
}

// appendFrame writes one frame at the end of the file and makes it durable.
// The file is closed again at once: a daemon keeps every namespace it has
// opened, and an open file per namespace would hold one descriptor each.
func (s *FileStore) appendFrame(frame []byte) error {
	if err := s.fault("append"); err != nil {
		return err
	}
	return writeFileSync(s.path, os.O_APPEND, frame)
}

// rewrite replaces the file with b: a temporary file is written and fsynced,
// renamed over the file, and the directory fsynced, so a crash leaves either
// the old file or the new one.
func (s *FileStore) rewrite(b []byte) error {
	tmp := s.path + tmpSuffix
	err := s.fault("write")
	if err == nil {
		err = writeFileSync(tmp, os.O_CREATE|os.O_TRUNC, b)
	}
	if err == nil {
		err = s.fault("rename")
	}
	if err == nil {
		err = os.Rename(tmp, s.path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := s.fault("sync"); err != nil {
		return err
	}
	// The rename only becomes durable once the directory entry hits disk;
	// without this a power loss can bring the old file back.
	return s.syncDir()
}

func removeIfExists(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// hashSeed keys prefixHash; its values never leave the process.
var hashSeed = maphash.MakeSeed()

// prefixHash hashes what a combinations frame must leave unchanged —
// fingerprint, providers, stage and blame count — and the member names of
// the first n combinations. It reads only those cheap fields, never the
// encoded state. (maphash.Hash writes never fail.)
func prefixHash(st *State, n int) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	var word [8]byte
	num := func(v int) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	str := func(s string) {
		num(len(s))
		h.WriteString(s)
	}
	num(len(st.Fingerprint))
	h.Write(st.Fingerprint)
	num(len(st.Providers))
	for _, p := range st.Providers {
		str(p)
	}
	num(int(st.Stage))
	num(len(st.Blamed))
	for _, c := range st.Combinations[:n] {
		num(len(c.Members))
		for _, m := range c.Members {
			str(m)
		}
	}
	return h.Sum64()
}

// writeFileSync writes b to the file opened with flag (O_CREATE|O_TRUNC for
// a rewrite's temporary file, O_APPEND for an append, which never creates
// the file) and flushes its contents to stable storage before returning.
func writeFileSync(path string, flag int, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|flag, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func (s *FileStore) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("sync directory: %w", err)
	}
	return nil
}

// Load implements Store: the state at the file's last intact boundary, with
// RecoveredCorruption set when a corrupt frame ended the fold before the end
// of the file. A missing file is ErrNotFound and one that cannot be read an
// I/O error, which the caller treats as run-fatal. Load forgets what this
// instance wrote, so the next Save rewrites the file — dropping a torn tail
// or a corrupt frame, and replacing a bad first record.
func (s *FileStore) Load() (*State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recovered = ""
	s.tail = logTail{}
	b, err := os.ReadFile(s.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	st, intact, corrupt, err := decodeFile(b)
	if err != nil {
		return nil, err
	}
	if corrupt {
		s.recovered = fmt.Sprintf("corrupt frame at byte %d of %s; resumed from the boundary before it", intact, filepath.Base(s.path))
	}
	return st, nil
}

// RecoveredCorruption implements Recoverer.
func (s *FileStore) RecoveredCorruption() (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered, s.recovered != ""
}

// Clear implements Store, removing the file and any temporary left by an
// interrupted rewrite.
func (s *FileStore) Clear() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tail = logTail{}
	for _, p := range []string{s.path, s.path + tmpSuffix} {
		if err := removeIfExists(p); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return nil
}

// Namespace implements Namespacer: the sub-store lives in the same directory
// under "assessment-<name>.ckpt" (name sanitized to a filesystem-safe
// alphabet). Sub-stores are cached, so concurrent users of one namespace
// share one instance and serialize on its lock; distinct namespaces never
// touch each other's files and are safe to drive concurrently.
func (s *FileStore) Namespace(name string) Store {
	if name == "" {
		return s
	}
	safe := sanitizeNamespace(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.children == nil {
		s.children = make(map[string]*FileStore)
	}
	child, ok := s.children[safe]
	if !ok {
		child = &FileStore{
			path: filepath.Join(s.dir, "assessment-"+safe+".ckpt"),
			dir:  s.dir,
		}
		s.children[safe] = child
	}
	return child
}

// ClearAll removes every "assessment*.ckpt*" file in the directory: the
// root's and every namespace's, including namespaces left behind by earlier
// processes that this instance never opened, and the ".prev", ".log" and
// ".corrupt" files that builds before the one-file layout kept beside them.
// The root and every namespace it has opened forget what they wrote, so
// their next Save writes a new file instead of appending to a removed one.
func (s *FileStore) ClearAll() error {
	s.mu.Lock()
	stores := []*FileStore{s}
	for _, c := range s.children {
		stores = append(stores, c)
	}
	s.mu.Unlock()
	for _, c := range stores {
		c.mu.Lock()
		c.tail = logTail{}
		c.mu.Unlock()
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range entries {
		if ok, _ := filepath.Match("assessment*.ckpt*", e.Name()); !ok {
			continue
		}
		if err := removeIfExists(filepath.Join(s.dir, e.Name())); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return nil
}

// sanitizeNamespace maps an arbitrary namespace key onto [A-Za-z0-9._-],
// truncated to keep file names within portable limits. Distinct keys can in
// principle collide after sanitization; callers that need injectivity (the
// assessment service keys namespaces by mode bits plus a hex fingerprint, 70
// chars — the limit must stay comfortably above that so the high-entropy tail
// survives) should pass names already inside the safe alphabet.
func sanitizeNamespace(name string) string {
	const maxLen = 128
	b := []byte(name)
	if len(b) > maxLen {
		b = b[:maxLen]
	}
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			b[i] = '-'
		}
	}
	return string(b)
}

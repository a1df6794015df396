package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Store is pluggable checkpoint persistence. A run holds at most one current
// checkpoint: Save replaces it atomically, Load returns the latest one (or
// ErrNotFound), and Clear removes it — the leader clears on successful
// completion so a finished run cannot be "resumed".
//
// Placement is a deployment concern the interface deliberately leaves open:
// the in-process failover runner shares one MemStore between successive
// leaders, while the CLIs point a FileStore at a directory (which must be
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
// corrupt or missing current snapshot to an older valid boundary. Callers
// that care (the resume path surfaces a CorruptionRecovered marker in the
// report) probe it with a type assertion after a successful Load.
type Recoverer interface {
	// RecoveredCorruption describes the most recent Load's fallback, or
	// returns false when the last Load read the current snapshot cleanly.
	RecoveredCorruption() (string, bool)
}

// FileStore persists the checkpoint in a directory as a base snapshot plus
// an append-only log of the Phase 3 combinations completed since, and keeps
// the previous base and its log as a fallback generation.
//
// A Save that only adds combinations to the state this instance last wrote
// (same fingerprint, providers, stage and blame count, and the combinations
// already on disk as its prefix) appends them to the log as one CRC-guarded
// frame: open with O_APPEND, write, fsync, close. Any other Save writes a new
// base: write a temporary file, fsync it, rotate the current base and its log
// to the previous generation, rename the temporary into place, and fsync the
// directory. A crash or power loss at any instant leaves at least one valid,
// durable boundary on disk.
//
// Load returns the base plus every intact frame of its own log; a torn or
// CRC-bad frame ends the log (it is what a crash during an append leaves).
// A Load that finds the current base corrupt (torn write, bit rot)
// quarantines it and its log under ".corrupt" names for post-mortem
// inspection and falls back to the previous generation instead of failing
// the run. A base written by a build with another format version is not
// corrupt: Load reports ErrVersion and leaves it in place for the next Save
// to replace.
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
	// ok is set once this instance has written the current base and every
	// frame since; a Load or a failed write clears it.
	ok bool
	// logged is the number of combinations on disk, base and log together,
	// and hash is prefixHash(st, logged) of the state last written.
	logged int
	hash   uint64
	// logExists reports that the log file has been created since the base.
	logExists bool
}

// File names used inside the store directory.
const (
	checkpointFile = "assessment.ckpt"
	tmpSuffix      = ".tmp"
	prevSuffix     = ".prev"
	logSuffix      = ".log" // a base's log is the base's name plus this
	corruptSuffix  = ".corrupt"
)

// NewFileStore opens (creating if needed) a directory-backed store.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &FileStore{path: filepath.Join(dir, checkpointFile), dir: dir}, nil
}

// Path returns the current checkpoint file location.
func (s *FileStore) Path() string { return s.path }

// SetFaultHook installs a hook called before each durability-relevant step
// of Save ("write", "rotate", "rename", "sync" for a new base, "append" for a
// log frame); a non-nil return aborts the save with that error. Tests use it
// to simulate disk-full and torn-write conditions at exact points of the
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

// Save implements Store, appending a log frame when st only adds
// combinations to what this instance last persisted and writing a new base
// otherwise. The whole sequence runs under the instance lock: concurrent
// savers of one store (the service's coalesced requests, a test's parallel
// writers) are serialized rather than interleaving their steps.
func (s *FileStore) Save(st *State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tail
	s.tail = logTail{} // until this save is durable
	n := len(st.Combinations)
	appended := t.ok && n > t.logged && prefixHash(st, t.logged) == t.hash
	var err error
	if appended {
		err = s.appendLog(st.Combinations[t.logged:], !t.logExists)
	} else {
		err = s.saveBase(st)
	}
	if err != nil {
		return err
	}
	s.tail = logTail{ok: true, logged: n, hash: prefixHash(st, n), logExists: appended}
	return nil
}

// appendLog writes cs to the log as one frame and makes it durable. The file
// is closed again at once: a daemon keeps every namespace it has opened, and
// an open log per namespace would hold one descriptor each.
func (s *FileStore) appendLog(cs []Combination, create bool) error {
	if err := s.fault("append"); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := writeFileSync(s.path+logSuffix, os.O_APPEND, encodeFrame(cs)); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if create {
		// The new directory entry must be durable too, or a power loss can
		// drop the whole log.
		return s.syncDir()
	}
	return nil
}

// saveBase writes st as a new base with a fsync'd write-rotate-rename
// sequence, leaving it with an empty log.
func (s *FileStore) saveBase(st *State) error {
	tmp := s.path + tmpSuffix
	if err := s.fault("write"); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := writeFileSync(tmp, os.O_TRUNC, Encode(st)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Rotate the old current generation into the fallback slot before the
	// new base lands: between the renames the previous boundary is still the
	// newest valid snapshot, so no crash instant loses both generations.
	if err := s.fault("rotate"); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := s.rotate(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := s.fault("rename"); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := s.fault("sync"); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// The renames only become durable once the directory entry updates hit
	// disk; without this a power loss can make a saved snapshot vanish.
	return s.syncDir()
}

// rotate moves the current base and its log into the previous generation's
// slot. The slot's old log goes first, so it never follows the new previous
// base; a current log without its base is dropped, never moved.
func (s *FileStore) rotate() error {
	if _, err := os.Stat(s.path); err != nil {
		return removeIfExists(s.path + logSuffix)
	}
	prev := s.path + prevSuffix
	if err := removeIfExists(prev + logSuffix); err != nil {
		return err
	}
	if err := os.Rename(s.path, prev); err != nil {
		return err
	}
	if err := os.Rename(s.path+logSuffix, prev+logSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

func removeIfExists(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// hashSeed keys prefixHash; its values never leave the process.
var hashSeed = maphash.MakeSeed()

// prefixHash hashes what a log append must leave unchanged — fingerprint,
// providers, stage and blame count — and the member names of the first n
// combinations. It reads only those cheap fields, never the encoded state.
// (maphash.Hash writes never fail.)
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

// writeFileSync writes b to the file opened with flag (O_TRUNC or O_APPEND)
// and flushes its contents to stable storage before returning, so a
// subsequent rename can only ever expose complete bytes.
func writeFileSync(path string, flag int, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|flag, 0o644)
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
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync directory: %w", err)
	}
	return nil
}

// Load implements Store. A corrupt current base is quarantined together with
// its log (renamed with a ".corrupt" suffix) and the previous generation is
// returned instead; RecoveredCorruption reports the fallback. The current
// log is never read on top of the previous base. Only when no generation
// decodes does Load surface the corruption error. A missing current base
// also falls back to the previous generation; Load returns ErrNotFound only
// when that is missing too, and quarantines a corrupt one as above. A
// current base of another format version returns ErrVersion with no
// quarantine and no fallback: the previous generation is no newer, so it
// cannot be of this version either, and the bytes are intact — an upgrade,
// not evidence of a fault. Load forgets what this instance wrote, so the
// next Save writes a new base.
func (s *FileStore) Load() (*State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recovered = ""
	s.tail = logTail{}

	prev := s.path + prevSuffix
	st, err := loadGeneration(s.path)
	switch {
	case err == nil:
		return st, nil
	case errors.Is(err, ErrNotFound):
		// A crash between Save's renames leaves only the rotated previous
		// generation; an empty store leaves neither. A previous generation
		// that fails to load is reported as it failed: only a missing one
		// means there is nothing to resume.
		st, perr := loadGeneration(prev)
		if perr != nil {
			if errors.Is(perr, ErrCorrupt) {
				quarantine(prev)
			}
			return nil, perr
		}
		s.recovered = "current snapshot missing; resumed from previous boundary"
		return st, nil
	case errors.Is(err, ErrCorrupt):
		// Keep the bad bytes for post-mortem inspection, out of the way of
		// future saves.
		quarantine(s.path)
		st, perr := loadGeneration(prev)
		if perr == nil {
			s.recovered = "quarantined corrupt snapshot; resumed from previous boundary"
			return st, nil
		}
		if errors.Is(perr, ErrCorrupt) {
			quarantine(prev)
		}
		return nil, err
	default:
		return nil, err
	}
}

// loadGeneration reads the base at path and appends the combinations of its
// log's intact frames.
func loadGeneration(path string) (*State, error) {
	st, err := loadFile(path)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path + logSuffix)
	if errors.Is(err, fs.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	logged, _ := decodeLog(b)
	st.Combinations = append(st.Combinations, logged...)
	return st, nil
}

// quarantine renames a corrupt base and its log aside.
func quarantine(path string) {
	_ = os.Rename(path, path+corruptSuffix)
	_ = os.Rename(path+logSuffix, path+logSuffix+corruptSuffix)
}

func loadFile(path string) (*State, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return Decode(b)
}

// RecoveredCorruption implements Recoverer.
func (s *FileStore) RecoveredCorruption() (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered, s.recovered != ""
}

// Clear implements Store, removing every live generation and its log.
// Quarantined ".corrupt" files are evidence, not state, and are deliberately
// kept.
func (s *FileStore) Clear() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tail = logTail{}
	prev := s.path + prevSuffix
	for _, p := range []string{s.path, s.path + logSuffix, prev, prev + logSuffix, s.path + tmpSuffix} {
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

// ClearAll removes the root's live generations and every namespaced
// snapshot and log in the directory — including ones left behind by earlier
// processes whose sub-stores this instance never opened. Quarantined
// ".corrupt" files are kept, as in Clear.
func (s *FileStore) ClearAll() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "assessment") || strings.HasSuffix(name, corruptSuffix) {
			continue
		}
		for _, suffix := range []string{"", prevSuffix, tmpSuffix, logSuffix, prevSuffix + logSuffix} {
			if strings.HasSuffix(name, ".ckpt"+suffix) {
				if err := removeIfExists(filepath.Join(s.dir, name)); err != nil {
					return fmt.Errorf("checkpoint: %w", err)
				}
				break
			}
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

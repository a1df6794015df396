package checkpoint

import (
	"errors"
	"fmt"
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
	// one. The state must not be mutated while Save runs.
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

// FileStore persists the checkpoint in a directory, keeping the current
// snapshot plus the previous boundary as a fallback generation. Saves write
// a temporary file, fsync it, rotate current → previous, rename the
// temporary into place, and fsync the directory, so a crash or power loss at
// any instant leaves at least one valid, durable boundary on disk. A Load
// that finds the current snapshot corrupt (torn write, bit rot) quarantines
// it under a ".corrupt" name for post-mortem inspection and falls back to
// the previous boundary instead of failing the run. A snapshot written by a
// build with another format version is not corrupt: Load reports ErrVersion
// and leaves it in place for the next Save to replace.
type FileStore struct {
	path string
	dir  string

	mu        sync.Mutex
	recovered string
	faultHook func(op string) error
	children  map[string]*FileStore
}

// File names used inside the store directory.
const (
	checkpointFile = "assessment.ckpt"
	tmpSuffix      = ".tmp"
	prevSuffix     = ".prev"
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
// of Save ("write", "rotate", "rename", "sync"); a non-nil return aborts the
// save with that error. Tests use it to simulate disk-full and torn-write
// conditions at exact points of the persistence sequence.
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

// Save implements Store with a fsync'd write-rotate-rename sequence. The
// whole sequence runs under the instance lock: concurrent savers of one
// store (the service's coalesced requests, a test's parallel writers) are
// serialized rather than interleaving their rotate/rename steps.
func (s *FileStore) Save(st *State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := s.path + tmpSuffix
	if err := s.fault("write"); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := writeFileSync(tmp, Encode(st)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Rotate the old current snapshot into the fallback slot before the new
	// one lands: between the two renames the previous boundary is still the
	// newest valid snapshot, so no crash instant loses both generations.
	if err := s.fault("rotate"); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := os.Stat(s.path); err == nil {
		if err := os.Rename(s.path, s.path+prevSuffix); err != nil {
			_ = os.Remove(tmp)
			return fmt.Errorf("checkpoint: %w", err)
		}
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

// writeFileSync writes b and flushes file contents to stable storage before
// returning, so the subsequent rename can only ever expose complete bytes.
func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
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

// Load implements Store. A corrupt current snapshot is quarantined (renamed
// with a ".corrupt" suffix) and the previous boundary is returned instead;
// RecoveredCorruption reports the fallback. Only when no generation decodes
// does Load surface the corruption error. A current snapshot of another
// format version returns ErrVersion with no quarantine and no fallback: the
// previous boundary is no newer, so it cannot be of this version either, and
// the bytes are intact — an upgrade, not evidence of a fault.
func (s *FileStore) Load() (*State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recovered = ""

	st, err := loadFile(s.path)
	switch {
	case err == nil:
		return st, nil
	case errors.Is(err, ErrNotFound):
		// A crash between Save's two renames leaves only the rotated
		// previous boundary; an empty store leaves neither.
		st, perr := loadFile(s.path + prevSuffix)
		if perr != nil {
			return nil, ErrNotFound
		}
		s.recovered = "current snapshot missing; resumed from previous boundary"
		return st, nil
	case errors.Is(err, ErrCorrupt):
		// Keep the bad bytes for post-mortem inspection, out of the way of
		// future saves.
		_ = os.Rename(s.path, s.path+corruptSuffix)
		st, perr := loadFile(s.path + prevSuffix)
		if perr == nil {
			s.recovered = "quarantined corrupt snapshot; resumed from previous boundary"
			return st, nil
		}
		if errors.Is(perr, ErrCorrupt) {
			_ = os.Rename(s.path+prevSuffix, s.path+prevSuffix+corruptSuffix)
		}
		return nil, err
	default:
		return nil, err
	}
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

// Clear implements Store, removing every live generation. Quarantined
// ".corrupt" files are evidence, not state, and are deliberately kept.
func (s *FileStore) Clear() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range []string{s.path, s.path + prevSuffix, s.path + tmpSuffix} {
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
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
// snapshot in the directory — including ones left behind by earlier
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
		switch {
		case strings.HasSuffix(name, ".ckpt"),
			strings.HasSuffix(name, ".ckpt"+prevSuffix),
			strings.HasSuffix(name, ".ckpt"+tmpSuffix):
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("checkpoint: %w", err)
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

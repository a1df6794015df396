package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// stateFor returns a minimal distinguishable state that survives the codec's
// roster-alignment checks.
func stateFor(tag string) *State {
	return &State{
		Fingerprint: []byte(tag),
		Providers:   []string{tag},
		Counts:      [][]int64{{1, 2}},
		CaseNs:      []int64{4},
	}
}

func TestNamespaceIsolation(t *testing.T) {
	fileRoot, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		root interface {
			Store
			Namespacer
		}
	}{
		{"MemStore", NewMemStore()},
		{"FileStore", fileRoot},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.root.Namespace("aaaa")
			b := tc.root.Namespace("bbbb")
			if err := a.Save(stateFor("a")); err != nil {
				t.Fatal(err)
			}
			if err := b.Save(stateFor("b")); err != nil {
				t.Fatal(err)
			}
			if err := tc.root.Save(stateFor("root")); err != nil {
				t.Fatal(err)
			}

			got, err := a.Load()
			if err != nil || string(got.Fingerprint) != "a" {
				t.Fatalf("namespace a loaded %v, %v", got, err)
			}
			// Clearing one namespace must not disturb siblings or the root.
			if err := a.Clear(); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Load(); !errors.Is(err, ErrNotFound) {
				t.Fatalf("cleared namespace still loads: %v", err)
			}
			if got, err := b.Load(); err != nil || string(got.Fingerprint) != "b" {
				t.Fatalf("sibling namespace disturbed: %v, %v", got, err)
			}
			if got, err := tc.root.Load(); err != nil || string(got.Fingerprint) != "root" {
				t.Fatalf("root disturbed: %v, %v", got, err)
			}
			// The same name must return the same underlying store.
			if err := tc.root.Namespace("bbbb").Clear(); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Load(); !errors.Is(err, ErrNotFound) {
				t.Fatalf("namespace instances not shared by name: %v", err)
			}
			// The empty name is the root itself.
			if err := tc.root.Namespace("").Clear(); err != nil {
				t.Fatal(err)
			}
			if _, err := tc.root.Load(); !errors.Is(err, ErrNotFound) {
				t.Fatalf("empty namespace is not the root: %v", err)
			}
		})
	}
}

func TestFileStoreNamespaceSanitization(t *testing.T) {
	dir := t.TempDir()
	root, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ns := root.Namespace("ten/ant: §" + strings.Repeat("x", 200))
	grown := sampleState()
	base := *grown
	base.Combinations = grown.Combinations[:1]
	for _, st := range []*State{&base, grown, &base, grown} {
		if err := ns.Save(st); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(ns.(*FileStore).Path()); err != nil {
		t.Fatalf("no checkpoint file on disk: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "assessment") || !strings.Contains(name, ".ckpt") {
			t.Errorf("unexpected file %q in store directory", name)
		}
		for _, c := range []byte(name) {
			switch {
			case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			default:
				t.Errorf("file name %q contains unsafe byte %q", name, c)
			}
		}
		if len(name) > len("assessment-")+128+len(".ckpt"+tmpSuffix) {
			t.Errorf("file name %q not truncated", name)
		}
	}
}

func TestClearAllRemovesEveryNamespace(t *testing.T) {
	dir := t.TempDir()
	root, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Save(stateFor("root")); err != nil {
		t.Fatal(err)
	}
	// Two saves so the namespace's file holds two records.
	ns := root.Namespace("cafe")
	if err := ns.Save(stateFor("one")); err != nil {
		t.Fatal(err)
	}
	if err := ns.Save(stateFor("two")); err != nil {
		t.Fatal(err)
	}
	// A namespaced snapshot left behind by an earlier process: this instance
	// never opened the namespace, ClearAll must remove it anyway.
	stale := filepath.Join(dir, "assessment-deadbeef.ckpt")
	if err := os.WriteFile(stale, Encode(stateFor("stale")), 0o644); err != nil {
		t.Fatal(err)
	}
	// Files that are not checkpoints must survive.
	other := filepath.Join(dir, "assessment-notes.txt")
	if err := os.WriteFile(other, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := root.ClearAll(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(other) {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("after ClearAll directory holds %v, want only %s", names, filepath.Base(other))
	}
	// A namespace opened before ClearAll writes a new file, not an append
	// to the removed one.
	if err := ns.Save(stateFor("three")); err != nil {
		t.Fatalf("Save after ClearAll: %v", err)
	}
	if got, err := ns.Load(); err != nil || string(got.Fingerprint) != "three" {
		t.Fatalf("Load after ClearAll and Save = (%+v, %v)", got, err)
	}

	mem := NewMemStore()
	if err := mem.Save(stateFor("root")); err != nil {
		t.Fatal(err)
	}
	if err := mem.Namespace("x").Save(stateFor("x")); err != nil {
		t.Fatal(err)
	}
	if err := mem.ClearAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Load(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("mem root survived ClearAll: %v", err)
	}
	if _, err := mem.Namespace("x").Load(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("mem namespace survived ClearAll: %v", err)
	}
}

// TestNamespaceConcurrentSaves hammers sibling namespaces of one shared store
// from many goroutines — the service's concurrent-assessment shape — and
// expects every namespace to end up with its own last write intact. Run under
// -race this doubles as the store-level data-race gate.
func TestNamespaceConcurrentSaves(t *testing.T) {
	fileRoot, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		root Namespacer
	}{
		{"MemStore", NewMemStore()},
		{"FileStore", fileRoot},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const namespaces, writers, rounds = 4, 3, 5
			var wg sync.WaitGroup
			for n := 0; n < namespaces; n++ {
				tag := fmt.Sprintf("ns-%d", n)
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						st := tc.root.Namespace(tag)
						for r := 0; r < rounds; r++ {
							if err := st.Save(stateFor(tag)); err != nil {
								t.Errorf("%s: save: %v", tag, err)
								return
							}
							if got, err := st.Load(); err != nil || string(got.Fingerprint) != tag {
								t.Errorf("%s: load %v, %v", tag, got, err)
								return
							}
						}
					}()
				}
			}
			wg.Wait()
		})
	}
}

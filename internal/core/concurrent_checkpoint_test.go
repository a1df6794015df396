package core

import (
	"encoding/hex"
	"errors"
	"sync"
	"testing"

	"gendpr/internal/checkpoint"
)

// TestConcurrentAssessmentsSharedFileStore runs two simultaneous assessments
// with different configurations over one shared FileStore, each checkpointing
// into its own fingerprint-keyed namespace — the assessment service's
// concurrency shape. Run under -race this is the satellite gate for making
// the shared store safe for concurrent runs; the results must match the
// sequential baselines bit for bit.
func TestConcurrentAssessmentsSharedFileStore(t *testing.T) {
	shards, ref := checkpointFixture(t)
	root, err := checkpoint.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	cfgA := DefaultConfig()
	cfgB := DefaultConfig()
	cfgB.MAFCutoff = 0.10
	policy := CollusionPolicy{F: 1}

	baseline := func(cfg Config) *Report {
		ps, _ := providersFor(shards, []int{0, 1, 2})
		rep, err := RunAssessment(ps, ref, cfg, policy, nil, AssessmentOptions{})
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		return rep
	}
	wantA, wantB := baseline(cfgA), baseline(cfgB)

	runOnce := func(cfg Config) (*Report, error) {
		ps, names := providersFor(shards, []int{0, 1, 2})
		fp := Fingerprint(cfg, policy, names, ref.N(), ref.L())
		return RunAssessment(ps, ref, cfg, policy, nil, AssessmentOptions{
			ProviderNames: names,
			Checkpoints:   root.Namespace(hex.EncodeToString(fp)),
		})
	}

	const rounds = 3
	var wg sync.WaitGroup
	reports := make([]*Report, 2*rounds)
	errs := make([]error, 2*rounds)
	for i := 0; i < rounds; i++ {
		for j, cfg := range []Config{cfgA, cfgB} {
			wg.Add(1)
			go func(slot int, cfg Config) {
				defer wg.Done()
				reports[slot], errs[slot] = runOnce(cfg)
			}(2*i+j, cfg)
		}
	}
	wg.Wait()

	for i := 0; i < rounds; i++ {
		for j, want := range []*Report{wantA, wantB} {
			slot := 2*i + j
			if errs[slot] != nil {
				t.Fatalf("concurrent run %d: %v", slot, errs[slot])
			}
			if !reports[slot].Selection.Equal(want.Selection) {
				t.Errorf("concurrent run %d selection %v != baseline %v",
					slot, reports[slot].Selection, want.Selection)
			}
		}
	}
}

// TestRetainCheckpointsEnablesFullReuse runs once with RetainCheckpoints and
// expects the snapshot to survive success, so an identical second request
// replays every completed phase (Resumed set, selection identical). A third
// run without retention must clear the store again.
func TestRetainCheckpointsEnablesFullReuse(t *testing.T) {
	shards, ref := checkpointFixture(t)
	store := checkpoint.NewMemStore()
	cfg := DefaultConfig()
	policy := CollusionPolicy{F: 1}

	run := func(retain bool) *Report {
		t.Helper()
		ps, names := providersFor(shards, []int{0, 1, 2})
		rep, err := RunAssessment(ps, ref, cfg, policy, nil, AssessmentOptions{
			ProviderNames:     names,
			Checkpoints:       store,
			RetainCheckpoints: retain,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	first := run(true)
	if first.Resumed {
		t.Fatal("first run claims to have resumed")
	}
	if _, err := store.Load(); err != nil {
		t.Fatalf("retained snapshot missing after success: %v", err)
	}

	second := run(true)
	if !second.Resumed {
		t.Error("identical second run did not resume from the retained snapshot")
	}
	if !second.Selection.Equal(first.Selection) {
		t.Errorf("reused selection %v != original %v", second.Selection, first.Selection)
	}

	third := run(false)
	if !third.Resumed {
		t.Error("third run did not resume")
	}
	if _, err := store.Load(); !errors.Is(err, checkpoint.ErrNotFound) {
		t.Errorf("store not cleared after non-retaining success: %v", err)
	}
}

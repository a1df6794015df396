package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"gendpr/internal/checkpoint"
	"gendpr/internal/genome"
)

// TestLatticeMatchesLegacyGolden is the equivalence contract of the
// combination lattice: for every federation size and collusion policy the
// incremental Gray-chain evaluation must reproduce the seed's per-combination
// Phase 3 (densePhase3) bit for bit — the final selection, the power, and
// every per-combination safe list — in both oblivious modes.
func TestLatticeMatchesLegacyGolden(t *testing.T) {
	for g := 3; g <= 5; g++ {
		var policies []CollusionPolicy
		for f := 1; f < g; f++ {
			policies = append(policies, CollusionPolicy{F: f})
		}
		policies = append(policies, CollusionPolicy{Conservative: true})
		for _, policy := range policies {
			checkAgainstDense(t, goldenCase{seed: int64(40 + g), snps: 110, caseN: 60 * g, g: g, policy: policy})
		}
	}
}

// TestBuildLatticePlanCoversAllSubsets walks every chain of a plan and checks
// the reconstructed subsets land exactly once in every lexicographic slot,
// matching evaluationSubsets, for a range of chains-per-block settings.
func TestBuildLatticePlanCoversAllSubsets(t *testing.T) {
	for _, g := range []int{3, 5, 6} {
		for _, policy := range []CollusionPolicy{{}, {F: 1}, {F: g - 1}, {Conservative: true}} {
			want, err := evaluationSubsets(g, policy)
			if err != nil {
				t.Fatal(err)
			}
			for _, chains := range []int{1, 2, 3, 16} {
				plan, err := buildLatticePlan(g, policy, chains)
				if err != nil {
					t.Fatalf("g=%d policy=%+v chains=%d: %v", g, policy, chains, err)
				}
				if plan.count != len(want) {
					t.Fatalf("g=%d policy=%+v chains=%d: plan count %d, want %d", g, policy, chains, plan.count, len(want))
				}
				got := make([][]int, plan.count)
				for ci := range plan.chains {
					err := plan.chains[ci].walk(func(pos, slot int, subset []int, rem, add int) error {
						if slot < 0 || slot >= plan.count {
							return fmt.Errorf("slot %d out of range", slot)
						}
						if got[slot] != nil {
							return fmt.Errorf("slot %d visited twice", slot)
						}
						got[slot] = append([]int(nil), subset...)
						if pos == 0 && (rem != -1 || add != -1) {
							return fmt.Errorf("head position reported exchange (%d,%d)", rem, add)
						}
						return nil
					})
					if err != nil {
						t.Fatalf("g=%d policy=%+v chains=%d: %v", g, policy, chains, err)
					}
				}
				for slot, sub := range got {
					if sub == nil {
						t.Fatalf("g=%d policy=%+v chains=%d: slot %d never visited", g, policy, chains, slot)
					}
					if !equalInts(sub, want[slot]) {
						t.Fatalf("g=%d policy=%+v chains=%d: slot %d = %v, want %v", g, policy, chains, slot, sub, want[slot])
					}
				}
			}
		}
	}
}

// TestRunStealing checks the work-stealing scheduler runs every task exactly
// once across worker counts and reports every task error.
func TestRunStealing(t *testing.T) {
	pool := newWorkPool(8)
	for _, n := range []int{0, 1, 7, 64} {
		for _, workers := range []int{1, 3, 8, 100} {
			ran := make([]int32, n)
			err := pool.RunStealing(n, workers, func(task int) error {
				if atomic.AddInt32(&ran[task], 1) != 1 {
					t.Errorf("n=%d workers=%d: task %d ran twice", n, workers, task)
				}
				if task%5 == 3 {
					return fmt.Errorf("task %d failed", task)
				}
				return nil
			})
			failures := 0
			for task := 0; task < n; task++ {
				if atomic.LoadInt32(&ran[task]) != 1 {
					t.Errorf("n=%d workers=%d: task %d ran %d times", n, workers, task, ran[task])
				}
				if task%5 == 3 {
					failures++
				}
			}
			if failures == 0 {
				if err != nil {
					t.Errorf("n=%d workers=%d: unexpected error %v", n, workers, err)
				}
				continue
			}
			if err == nil {
				t.Fatalf("n=%d workers=%d: expected %d task errors", n, workers, failures)
			}
			for task := 3; task < n; task += 5 {
				want := fmt.Sprintf("task %d failed", task)
				if !containsError(err, want) {
					t.Errorf("n=%d workers=%d: joined error misses %q", n, workers, want)
				}
			}
		}
	}
}

func containsError(err error, msg string) bool {
	type unwrapper interface{ Unwrap() []error }
	if err.Error() == msg {
		return true
	}
	if u, ok := err.(unwrapper); ok {
		for _, e := range u.Unwrap() {
			if containsError(e, msg) {
				return true
			}
		}
	}
	return false
}

// conservativeG5 is the fixture of the scheduling and pair-lifetime tests:
// five named members under the conservative policy, 31 combinations, so
// Phase 3 has collusion chains in every f-block. On this cohort Phase 2
// keeps 59 of 648 SNPs and every combination's LR test withholds some of
// them (30 distinct per-combination selections).
func conservativeG5(t testing.TB) ([]Provider, *genome.Matrix, []string) {
	t.Helper()
	cohort := testCohort(t, 1500, 100, 3)
	shards := shardsOf(t, cohort, 5)
	providers := make([]Provider, len(shards))
	for i, s := range shards {
		providers[i] = NewLocalMember(s)
	}
	return providers, cohort.Reference, []string{"gdo-a", "gdo-b", "gdo-c", "gdo-d", "gdo-e"}
}

// withProcs runs fn at runtime.GOMAXPROCS(n) — the leader's worker count,
// and so the number of chains each f-block is cut into — and restores the
// previous setting.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// boundaryStore is a MemStore that counts saves and shows each state to
// onSave before persisting it. The run serializes its saves, so the wrapper
// needs no lock of its own.
type boundaryStore struct {
	*checkpoint.MemStore
	saves  int
	onSave func(st *checkpoint.State)
}

func (s *boundaryStore) Save(st *checkpoint.State) error {
	s.saves++
	if s.onSave != nil {
		s.onSave(st)
	}
	return s.MemStore.Save(st)
}

// TestPhase3ScheduleDeterministic runs one conservative G=5 assessment on
// one worker (one chain per f-block) and on four (the collusion chains of
// Phases 2 and 3 stolen across the pool) and requires the same outcome:
// selections, every per-combination selection, the combination count, the
// number of checkpoint saves, and the same final set of combination records —
// only the order in which the records reached the store may differ. Phase 2's
// traffic must not depend on the schedule either: each member receives the
// same pair requests in the same order on one worker and on four, and no pair
// twice. On this cohort collusion chains need pairs the full-membership scan
// did not fetch, so the in-order re-run of stopped chains is exercised.
func TestPhase3ScheduleDeterministic(t *testing.T) {
	providers, ref, names := conservativeG5(t)
	policy := CollusionPolicy{Conservative: true}
	type outcome struct {
		report   *Report
		saves    int
		combos   map[string]checkpoint.Combination
		requests [][][][2]int // per member, its pair requests in order
	}
	run := func(procs int) outcome {
		var out outcome
		withProcs(procs, func() {
			store := &boundaryStore{MemStore: checkpoint.NewMemStore()}
			logged, logs := logPairs(providers)
			rep, err := RunAssessment(logged, ref, DefaultConfig(), policy, nil, AssessmentOptions{
				ProviderNames:     names,
				Checkpoints:       store,
				RetainCheckpoints: true,
			})
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", procs, err)
			}
			final, err := store.Load()
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: final snapshot: %v", procs, err)
			}
			out = outcome{report: rep, saves: store.saves, combos: map[string]checkpoint.Combination{}}
			for _, c := range final.Combinations {
				out.combos[nameKey(c.Members)] = c
			}
			for _, l := range logs {
				out.requests = append(out.requests, l.seq)
			}
		})
		return out
	}
	one, four := run(1), run(4)

	// The full-membership scan alone: what the collusion chains add to it is
	// what they fetched after it.
	fullOnly, fullLogs := logPairs(providers)
	if _, err := RunAssessment(fullOnly, ref, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{}); err != nil {
		t.Fatal(err)
	}
	fullRequests, requests := 0, 0
	for i, l := range fullLogs {
		fullRequests += len(l.seq)
		requests += len(one.requests[i])
	}
	if requests <= fullRequests {
		t.Fatalf("degenerate fixture: %d pair requests under collusion, %d for the full membership alone; no collusion chain fetched", requests, fullRequests)
	}
	for i := range one.requests {
		if !reflect.DeepEqual(four.requests[i], one.requests[i]) {
			t.Errorf("member %d: pair requests differ between 1 and 4 workers (%d and %d requests)", i, len(one.requests[i]), len(four.requests[i]))
		}
	}
	for i, seq := range one.requests {
		seen := make(map[[2]int]bool)
		for _, batch := range seq {
			for _, pair := range batch {
				if seen[pair] {
					t.Errorf("member %d asked for pair %v twice", i, pair)
				}
				seen[pair] = true
			}
		}
	}

	if one.report.Combinations != 31 || four.report.Combinations != 31 {
		t.Fatalf("combinations %d / %d, want 31", one.report.Combinations, four.report.Combinations)
	}
	if !four.report.Selection.Equal(one.report.Selection) || four.report.Selection.Power != one.report.Selection.Power {
		t.Errorf("selection on 4 workers %v (power %v) != on 1 %v (power %v)",
			four.report.Selection, four.report.Selection.Power, one.report.Selection, one.report.Selection.Power)
	}
	for c := range one.report.PerCombination {
		if !four.report.PerCombination[c].Equal(one.report.PerCombination[c]) {
			t.Errorf("combination %d: %v on 4 workers, %v on 1", c, four.report.PerCombination[c], one.report.PerCombination[c])
		}
	}
	if want := 2 + 31; one.saves != want || four.saves != want {
		t.Errorf("checkpoint saves %d on 1 worker, %d on 4, want %d (MAF, LD, one per combination)", one.saves, four.saves, want)
	}
	if !reflect.DeepEqual(four.combos, one.combos) {
		t.Errorf("final combination records differ between 1 and 4 workers:\n 1: %v\n 4: %v", one.combos, four.combos)
	}
}

// TestLatticeResumeConservativeConcurrent composes the concurrent Phase 3
// with checkpoint resume: a conservative G=5 run on one worker crashes after
// the MAF save, mid-sweep, and after the last combination, the resume runs on
// four workers (and the other way round), and each must reproduce the
// undisturbed baseline bit for bit.
func TestLatticeResumeConservativeConcurrent(t *testing.T) {
	providers, ref, names := conservativeG5(t)
	policy := CollusionPolicy{Conservative: true}
	cfg := DefaultConfig()
	baseline, err := RunAssessment(providers, ref, cfg, policy, nil, AssessmentOptions{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, procs := range [][2]int{{1, 4}, {4, 1}} {
		for _, keep := range []int{1, 3, 2 + 31/2, 2 + 31} {
			snap := newSnapshotStore(t, checkpoint.NewMemStore(), keep)
			withProcs(procs[0], func() {
				if _, err := RunAssessment(providers, ref, cfg, policy, nil, AssessmentOptions{
					ProviderNames: names,
					Checkpoints:   snap,
				}); err != nil {
					t.Fatalf("procs %v keep %d: first run: %v", procs, keep, err)
				}
			})
			var report *Report
			withProcs(procs[1], func() {
				report, err = RunAssessment(providers, ref, cfg, policy, nil, AssessmentOptions{
					ProviderNames: names,
					Checkpoints:   snap.inner,
				})
			})
			if err != nil {
				t.Fatalf("procs %v keep %d: resume: %v", procs, keep, err)
			}
			if !report.Resumed {
				t.Errorf("procs %v keep %d: Resumed not set", procs, keep)
			}
			if !report.Selection.Equal(baseline.Selection) || report.Selection.Power != baseline.Selection.Power {
				t.Errorf("procs %v keep %d: resumed %v (power %v) != baseline %v (power %v)",
					procs, keep, report.Selection, report.Selection.Power, baseline.Selection, baseline.Selection.Power)
			}
		}
	}
}

// TestFileStoreResumeFromLog kills a conservative G=5 run right after its
// k-th Phase-3 save into a real FileStore, where Phase 3 appends
// combinations frames behind the Phase-2 record, and resumes it from a
// fresh FileStore on the same directory. The resume must replay exactly the
// k logged combinations (it saves the other 31 − k itself) and reproduce the
// undisturbed run.
func TestFileStoreResumeFromLog(t *testing.T) {
	providers, ref, names := conservativeG5(t)
	policy := CollusionPolicy{Conservative: true}
	cfg := DefaultConfig()
	baseline, err := RunAssessment(providers, ref, cfg, policy, nil, AssessmentOptions{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	open := func(dir string) *checkpoint.FileStore {
		fs, err := checkpoint.NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	for _, k := range []int{1, 15, 30} {
		dir := t.TempDir()
		if _, err := RunAssessment(providers, ref, cfg, policy, nil, AssessmentOptions{
			ProviderNames: names,
			Checkpoints:   newSnapshotStore(t, open(dir), 2+k),
		}); err != nil {
			t.Fatalf("k=%d: first run: %v", k, err)
		}
		seed, err := open(dir).Load()
		if err != nil || seed.Stage != checkpoint.StageLD || len(seed.Combinations) != k {
			t.Fatalf("k=%d: seed %v, err %v; want StageLD with %d combinations", k, seed, err, k)
		}

		resume := &contractStore{Store: open(dir), t: t}
		report, err := RunAssessment(providers, ref, cfg, policy, nil, AssessmentOptions{
			ProviderNames: names,
			Checkpoints:   resume,
		})
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		if !report.Resumed {
			t.Errorf("k=%d: Resumed not set", k)
		}
		if want := 31 - k; resume.saves != want {
			t.Errorf("k=%d: resume saved %d combinations, want %d (the rest replayed)", k, resume.saves, want)
		}
		if !report.Selection.Equal(baseline.Selection) || report.Selection.Power != baseline.Selection.Power {
			t.Errorf("k=%d: resumed %v (power %v) != baseline %v (power %v)",
				k, report.Selection, report.Selection.Power, baseline.Selection, baseline.Selection.Power)
		}
		for c := range baseline.PerCombination {
			if !report.PerCombination[c].Equal(baseline.PerCombination[c]) {
				t.Errorf("k=%d: combination %d: resumed %v != baseline %v", k, c, report.PerCombination[c], baseline.PerCombination[c])
			}
		}
	}
}

package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"gendpr/internal/checkpoint"
	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
)

// patternlessProvider hides a provider's PatternProvider capability, forcing
// the assessment onto the legacy per-combination Phase 3 path. It is the
// test's stand-in for a federation member running an older binary.
type patternlessProvider struct {
	inner Provider
}

func (p *patternlessProvider) Counts() ([]int64, error) { return p.inner.Counts() }
func (p *patternlessProvider) CaseN() (int64, error)    { return p.inner.CaseN() }
func (p *patternlessProvider) PairStats(a, b int) (genome.PairStats, error) {
	return p.inner.PairStats(a, b)
}
func (p *patternlessProvider) LRMatrix(cols []int, caseFreq, refFreq []float64) (*lrtest.BitMatrix, error) {
	return p.inner.LRMatrix(cols, caseFreq, refFreq)
}

func runWithProviders(t *testing.T, shards []*genome.Matrix, ref *genome.Matrix, cfg Config, policy CollusionPolicy, patternless bool) *Report {
	t.Helper()
	providers := make([]Provider, len(shards))
	for i, s := range shards {
		if patternless {
			providers[i] = &patternlessProvider{inner: NewLocalMember(s)}
		} else {
			providers[i] = NewLocalMember(s)
		}
	}
	rep, err := RunAssessment(providers, ref, cfg, policy, nil)
	if err != nil {
		t.Fatalf("RunAssessment(patternless=%v): %v", patternless, err)
	}
	return rep
}

// TestLatticeMatchesLegacyGolden is the equivalence contract of the
// combination lattice: for every federation size and collusion policy the
// incremental Gray-chain evaluation must reproduce the legacy
// per-combination path bit for bit — the final selection, the power, and
// every per-combination safe list.
func TestLatticeMatchesLegacyGolden(t *testing.T) {
	for _, g := range []int{3, 4, 5} {
		cohort := testCohort(t, 110, 60*g, int64(40+g))
		shards := shardsOf(t, cohort, g)

		var policies []CollusionPolicy
		for f := 1; f < g; f++ {
			policies = append(policies, CollusionPolicy{F: f})
		}
		policies = append(policies, CollusionPolicy{Conservative: true})

		for _, policy := range policies {
			cfg := DefaultConfig()
			legacy := runWithProviders(t, shards, cohort.Reference, cfg, policy, true)
			lattice := runWithProviders(t, shards, cohort.Reference, cfg, policy, false)

			label := fmt.Sprintf("g=%d policy=%+v", g, policy)
			if !lattice.Selection.Equal(legacy.Selection) {
				t.Errorf("%s: lattice %v != legacy %v", label, lattice.Selection, legacy.Selection)
			}
			if lattice.Selection.Power != legacy.Selection.Power {
				t.Errorf("%s: lattice power %v != legacy %v", label, lattice.Selection.Power, legacy.Selection.Power)
			}
			if len(lattice.PerCombination) != len(legacy.PerCombination) {
				t.Fatalf("%s: combination counts differ: %d vs %d", label, len(lattice.PerCombination), len(legacy.PerCombination))
			}
			for c := range legacy.PerCombination {
				if !lattice.PerCombination[c].Equal(legacy.PerCombination[c]) {
					t.Errorf("%s: combination %d: lattice %v != legacy %v",
						label, c, lattice.PerCombination[c], legacy.PerCombination[c])
				}
			}
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
// one worker (one chain per f-block, walked in order) and on four (Phase 3's
// chains stolen across the pool) and requires the same outcome: selections,
// every per-combination selection, the combination count, the number of
// checkpoint saves, and the same final set of combination records — only the
// order in which the records reached the store may differ.
func TestPhase3ScheduleDeterministic(t *testing.T) {
	providers, ref, names := conservativeG5(t)
	policy := CollusionPolicy{Conservative: true}
	type outcome struct {
		report *Report
		saves  int
		combos map[string]checkpoint.Combination
	}
	run := func(procs int) outcome {
		var out outcome
		withProcs(procs, func() {
			store := &boundaryStore{MemStore: checkpoint.NewMemStore()}
			rep, err := RunAssessmentWithOptions(providers, ref, DefaultConfig(), policy, nil, AssessmentOptions{
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
		})
		return out
	}
	one, four := run(1), run(4)

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
	baseline, err := RunAssessment(providers, ref, cfg, policy, nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, procs := range [][2]int{{1, 4}, {4, 1}} {
		for _, keep := range []int{1, 3, 2 + 31/2, 2 + 31} {
			snap := &snapshotStore{inner: checkpoint.NewMemStore(), keep: keep}
			withProcs(procs[0], func() {
				if _, err := RunAssessmentWithOptions(providers, ref, cfg, policy, nil, AssessmentOptions{
					ProviderNames: names,
					Checkpoints:   snap,
				}); err != nil {
					t.Fatalf("procs %v keep %d: first run: %v", procs, keep, err)
				}
			})
			var report *Report
			withProcs(procs[1], func() {
				report, err = RunAssessmentWithOptions(providers, ref, cfg, policy, nil, AssessmentOptions{
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

package core

import (
	"fmt"
	"testing"

	"gendpr/internal/genome"
)

// This file keeps the single-path LD predictor Phase 2 used before its
// announcements became a closure over the panel's band: the scan run ahead
// on the reference panel's decision at the panel's own size (predictLDPath),
// re-predicted along one path from wherever the exact scan leaves it
// (extendLDPath). It is the oracle of the round-trip sweep: the closure must
// never need more pair rounds per member than this did.

// predictLDPath runs the scan over retained on the decider alone and returns
// its path — one survivor per position, −1 for none — together with the
// pairs it examined, in scan order.
func predictLDPath(retained []int, decide func(a, b int) bool, assocPValues []float64) ([]int, [][2]int) {
	path := make([]int, len(retained))
	for i := range path {
		path[i] = -1
	}
	if len(retained) < 2 {
		return path, nil
	}
	return path, extendLDPath(path, retained, decide, assocPValues, 1, retained[0], nil)
}

// extendLDPath predicts the scan onward from (current, idx) until it meets
// the path — from where the same decider would only retrace it — or the list
// ends; it records the stretch in path and appends its pairs to pairs.
func extendLDPath(path, retained []int, decide func(a, b int) bool, assocPValues []float64, idx, current int, pairs [][2]int) [][2]int {
	for ; idx < len(retained) && path[idx] != current; idx++ {
		next := retained[idx]
		path[idx] = current
		pairs = append(pairs, [2]int{current, next})
		if decide(current, next) {
			current = mostRanked(current, next, assocPValues)
		} else {
			current = next
		}
	}
	return pairs
}

// singlePathScan is the exact scan fetching along one predicted path: where
// the scan's survivor is not the path's, it re-predicts from there and
// announces that stretch.
func singlePathScan(retained []int, pool PairStatsFunc, decide func(a, b int) bool, prefetch PairBatchFunc, announced []int, assocPValues []float64, cutoff float64) ([]int, error) {
	if len(retained) == 0 {
		return []int{}, nil
	}
	path := append([]int(nil), announced...)
	out := make([]int, 0, len(retained))
	current := retained[0]
	for idx := 1; idx < len(retained); idx++ {
		next := retained[idx]
		if path[idx] != current {
			if err := prefetch(extendLDPath(path, retained, decide, assocPValues, idx, current, nil)); err != nil {
				return nil, err
			}
		}
		dependent, err := pairDependent(pool, current, next, cutoff)
		if err != nil {
			return nil, err
		}
		if dependent {
			current = mostRanked(current, next, assocPValues)
		} else {
			out = append(out, current)
			current = next
		}
	}
	return append(out, current), nil
}

// singlePathRounds replays Phase 2 of run under the single-path predictor:
// the panel's path announced to the full membership, then every combination
// in plan order, each announcement going to the combination's members for
// the pairs they have not sent yet. It returns, per member, the number of
// pair batches it would answer and the pairs of its first, and each
// combination's L″ by slot. run must have its summaries; its pair table is
// not touched.
func singlePathRounds(t *testing.T, run *assessmentRun, shards []*genome.Matrix, plan *latticePlan, lPrime []int) (rounds []int, first [][][2]int, per [][]int) {
	t.Helper()
	cutoff := run.cfg.LDCutoff
	fullCounts, fullN := run.subsetCounts(plan.chains[0].head)
	pvals, err := AssociationPValues(fullCounts, fullN, run.refCounts, run.refN, run.cfg.PaperChiSquare)
	if err != nil {
		t.Fatal(err)
	}
	refPair := run.ref.PairStats
	onPanel := func(a, b int) bool {
		dependent, err := ldDependent(refPair(a, b), cutoff)
		return err == nil && dependent
	}
	rounds = make([]int, len(shards))
	first = make([][][2]int, len(shards))
	have := make([]map[[2]int]bool, len(shards))
	for i := range have {
		have[i] = map[[2]int]bool{}
	}
	announce := func(subset []int, pairs [][2]int) {
		for _, i := range subset {
			var missing [][2]int
			for _, p := range pairs {
				if !have[i][p] {
					have[i][p] = true
					missing = append(missing, p)
				}
			}
			if len(missing) == 0 {
				continue
			}
			if rounds[i]++; first[i] == nil {
				first[i] = missing
			}
		}
	}
	path, pairs := predictLDPath(lPrime, onPanel, pvals)
	announce(plan.chains[0].head, pairs)

	per = make([][]int, plan.count)
	for c := range plan.chains {
		err := plan.chains[c].walk(func(_, slot int, subset []int, _, _ int) error {
			pool := func(a, b int) (genome.PairStats, error) {
				s := refPair(a, b)
				for _, i := range subset {
					s = s.Add(shards[i].PairStats(a, b))
				}
				return s, nil
			}
			prefetch := func(pairs [][2]int) error {
				announce(subset, pairs)
				return nil
			}
			lDouble, err := singlePathScan(lPrime, pool, onPanel, prefetch, path, pvals, cutoff)
			per[slot] = lDouble
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return rounds, first, per
}

// newPhase2Run is an assessment run over in-process members, each counted,
// with its Phase-1 summaries collected: what Phase 2 starts from.
func newPhase2Run(t testing.TB, ref *genome.Matrix, shards []*genome.Matrix, pool *workPool) (*assessmentRun, []*countingBatchMember) {
	t.Helper()
	run := &assessmentRun{cfg: DefaultConfig(), ref: ref, report: &Report{}, pool: pool}
	counters := make([]*countingBatchMember, len(shards))
	for i, shard := range shards {
		counters[i] = &countingBatchMember{LocalMember: NewLocalMember(shard)}
		run.members = append(run.members, newCachedProvider(counters[i]))
	}
	if err := run.collectSummaries(); err != nil {
		t.Fatal(err)
	}
	return run, counters
}

// TestPhase2NeverMoreRoundsThanSinglePath is the sweep behind "no input can
// get worse": over cohort seeds, federation sizes and collusion policies —
// the small-panel cohort of the conservative message-count tests among them
// — every member answers no more pair batches than under the single-path
// predictor, its first batch holds every pair of the single path's first,
// and every combination's L″ is the same.
func TestPhase2NeverMoreRoundsThanSinglePath(t *testing.T) {
	type fixture struct {
		snps, genomes int
		seed          int64
	}
	fixtures := []fixture{{1500, 100, 3}}
	for seed := int64(1); seed <= 6; seed++ {
		fixtures = append(fixtures, fixture{150, 360, seed}, fixture{300, 200, seed})
	}
	policies := []CollusionPolicy{{}, {F: 1}, {Conservative: true}}
	pool := defaultWorkPool()
	for _, fx := range fixtures {
		cohort := testCohort(t, fx.snps, fx.genomes, fx.seed)
		for _, g := range []int{3, 5} {
			shards := shardsOf(t, cohort, g)
			for _, policy := range policies {
				name := fmt.Sprintf("cohort %dx%d seed %d, G=%d, policy %+v", fx.snps, fx.genomes, fx.seed, g, policy)
				plan, err := buildLatticePlan(g, policy, pool.size())
				if err != nil {
					t.Fatal(err)
				}
				run, counters := newPhase2Run(t, cohort.Reference, shards, pool)
				lPrime, _, err := run.phase1MAF(plan)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				rounds, first, wantPer := singlePathRounds(t, run, shards, plan, lPrime)
				_, per, err := run.phase2LD(plan, lPrime)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for slot := range per {
					if !equalInts(per[slot], wantPer[slot]) {
						t.Errorf("%s: combination %d: L″ %v, single path %v", name, slot, per[slot], wantPer[slot])
					}
				}
				for i, c := range counters {
					if c.singles != 0 {
						t.Errorf("%s: member %d: %d single-pair request(s)", name, i, c.singles)
					}
					if c.batches > rounds[i] {
						t.Errorf("%s: member %d: %d pair batches, single path %d", name, i, c.batches, rounds[i])
					}
					got := map[[2]int]bool{}
					for _, p := range c.first {
						got[p] = true
					}
					for _, p := range first[i] {
						if !got[p] {
							t.Errorf("%s: member %d: first batch lacks the single path's pair %v", name, i, p)
							break
						}
					}
				}
			}
		}
	}
}

package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// TestPairTablePooledMatchesAddedStats is the joint-count table's oracle.
// Over random pairs and random member subsets, pooled — the panel's and the
// subset's Phase-1 sizes and counts with the summed joint counts — must equal
// the PairStats.Add sum of the panel's full statistics and each member's, in
// subset order, and the panel's band decision must be the one its full
// statistics give. A subset containing a member whose joint count is not
// stored pools nothing.
func TestPairTablePooledMatchesAddedStats(t *testing.T) {
	cohort := testCohort(t, 300, 400, 11)
	shards := shardsOf(t, cohort, 5)
	ref := cohort.Reference
	g := len(shards)
	counts := make([][]int64, g)
	caseNs := make([]int64, g)
	fullN := int64(ref.N())
	for i, s := range shards {
		counts[i], caseNs[i] = s.AlleleCounts(), int64(s.N())
		fullN += caseNs[i]
	}
	cutoff := DefaultConfig().LDCutoff
	tab := newPairTable(ref.AlleleCounts(), int64(ref.N()), counts, caseNs)
	rng := rand.New(rand.NewSource(9))
	pooledSome, refused := 0, 0
	for trial := 0; trial < 400; trial++ {
		a, b := rng.Intn(ref.L()), rng.Intn(ref.L())
		if a == b {
			continue
		}
		k, ok := tab.lookup(a, b)
		if !ok {
			k = tab.add(a, b, ref.PairCount(a, b), cutoff)
		}
		dependent, open := bandDecision(ref.PairStats(a, b), fullN, cutoff)
		if d, o := tab.predict(a, b); d != dependent || o != open {
			t.Fatalf("pair (%d,%d): band decision %v/%v, the panel's full statistics give %v/%v", a, b, d, o, dependent, open)
		}
		missing := rng.Intn(g + 1) // g: every member's joint count stored
		for i, s := range shards {
			*tab.member(k, i) = s.PairCount(a, b)
		}
		if missing < g {
			*tab.member(k, missing) = -1
		}
		subset := rng.Perm(g)[:1+rng.Intn(g)]
		slices.Sort(subset)
		got, ok := tab.pooled(k, a, b, subset)
		if slices.Contains(subset, missing) {
			if ok {
				t.Fatalf("pair (%d,%d), subset %v: pooled without member %d's joint count", a, b, subset, missing)
			}
			refused++
			continue
		}
		want := ref.PairStats(a, b)
		for _, i := range subset {
			want = want.Add(shards[i].PairStats(a, b))
		}
		if !ok || got != want {
			t.Fatalf("pair (%d,%d), subset %v: pooled %+v (%v), summed statistics %+v", a, b, subset, got, ok, want)
		}
		pooledSome++
	}
	if pooledSome == 0 || refused == 0 {
		t.Fatalf("degenerate draw: %d pooled, %d refused", pooledSome, refused)
	}
}

// TestContradictingMarginalStoresNothing: the table keeps a joint count
// alone because prefetchPairs checks a member's whole statistics first. A
// member whose pair marginal contradicts its Phase-1 count (pair-skew, every
// other invariant kept) fails the prefetch with ErrInvalidPayload, and none
// of its joint counts is stored; the honest members' are. The resilient
// runner then quarantines it in Phase 2: TestByzantineModesQuarantined/pair-skew.
func TestContradictingMarginalStoresNothing(t *testing.T) {
	cohort := testCohort(t, 300, 400, 11)
	shards := shardsOf(t, cohort, 3)
	const bad = 1
	members := make([]*cachedProvider, len(shards))
	for i, s := range shards {
		var p Provider = NewLocalMember(s)
		if i == bad {
			p = NewByzantineProvider(p, ByzantinePairSkew, 1)
		}
		members[i] = newCachedProvider(p)
	}
	r := &assessmentRun{cfg: DefaultConfig(), ref: cohort.Reference, members: members, report: &Report{}, pool: defaultWorkPool()}
	if err := r.collectSummaries(); err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 1}, {2, 5}, {7, 9}}
	err := r.prefetchPairs([]int{0, 1, 2}, pairs)
	if !errors.Is(err, ErrInvalidPayload) {
		t.Fatalf("prefetch = %v, want ErrInvalidPayload", err)
	}
	for _, p := range pairs {
		k, ok := r.pairs.lookup(p[0], p[1])
		if !ok {
			t.Fatalf("pair %v has no entry", p)
		}
		for i, s := range shards {
			got := *r.pairs.member(k, i)
			switch {
			case i == bad && got != -1:
				t.Errorf("pair %v: the skewed member's joint count %d was stored", p, got)
			case i != bad && got != s.PairCount(p[0], p[1]):
				t.Errorf("pair %v: member %d's joint count %d, want %d", p, i, got, s.PairCount(p[0], p[1]))
			}
		}
	}
}

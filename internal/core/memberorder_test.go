package core

import (
	"fmt"
	"testing"

	"gendpr/internal/genome"
)

// TestMemberOrderLaw checks a metamorphic law of the protocol: which member
// holds which shard, and so which one coordinates, must not change the
// release. Every permutation of three shards under f=0, f=1 and the
// conservative policy, and a few of four shards under the conservative
// policy, must select exactly what the identity order selects, with the same
// residual power. β is lowered so that the LR-test rejects SNPs in every
// case and Phase 3's combinations have something to disagree on.
func TestMemberOrderLaw(t *testing.T) {
	cohort := testCohort(t, 400, 300, 9)
	cfg := DefaultConfig()
	cfg.LR.PowerThreshold = 0.1
	cases := []struct {
		g      int
		policy CollusionPolicy
		perms  [][]int
	}{
		{3, CollusionPolicy{}, permutations(3)},
		{3, CollusionPolicy{F: 1}, permutations(3)},
		{3, CollusionPolicy{Conservative: true}, permutations(3)},
		{4, CollusionPolicy{Conservative: true}, [][]int{{3, 2, 1, 0}, {1, 0, 3, 2}, {2, 3, 0, 1}, {1, 2, 3, 0}}},
	}
	for _, tc := range cases {
		shards := shardsOf(t, cohort, tc.g)
		identity, err := RunDistributed(shards, cohort.Reference, cfg, tc.policy)
		if err != nil {
			t.Fatalf("g=%d %+v identity order: %v", tc.g, tc.policy, err)
		}
		if len(identity.Selection.AfterLD) >= len(identity.Selection.AfterMAF) ||
			len(identity.Selection.Safe) >= len(identity.Selection.AfterLD) {
			t.Fatalf("g=%d %+v: degenerate cohort, a phase pruned nothing: %v", tc.g, tc.policy, identity.Selection)
		}
		for _, perm := range tc.perms {
			t.Run(fmt.Sprintf("g%d/F%d/c%v/%v", tc.g, tc.policy.F, tc.policy.Conservative, perm), func(t *testing.T) {
				permuted := make([]*genome.Matrix, len(perm))
				for i, p := range perm {
					permuted[i] = shards[p]
				}
				rep, err := RunDistributed(permuted, cohort.Reference, cfg, tc.policy)
				if err != nil {
					t.Fatalf("RunDistributed: %v", err)
				}
				if !rep.Selection.Equal(identity.Selection) {
					t.Errorf("selection %v != identity order %v", rep.Selection, identity.Selection)
				}
				if rep.Selection.Power != identity.Selection.Power {
					t.Errorf("power %v != identity order %v", rep.Selection.Power, identity.Selection.Power)
				}
			})
		}
	}
}

// permutations lists every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, rest := range permutations(n - 1) {
		for pos := 0; pos <= len(rest); pos++ {
			p := make([]int, 0, n)
			p = append(p, rest[:pos]...)
			p = append(p, n-1)
			p = append(p, rest[pos:]...)
			out = append(out, p)
		}
	}
	return out
}

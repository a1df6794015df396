package federation

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gendpr/internal/core"
	"gendpr/internal/enclave"
	"gendpr/internal/enclave/attest"
	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
)

// longLivedLeader builds the fixed leader gdo-0 of a three-GDO federation, as
// the daemon holds it across requests.
func longLivedLeader(t *testing.T, cohort *genome.Cohort) (*Leader, *attest.Authority, []*genome.Matrix) {
	t.Helper()
	shards, err := cohort.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	authority, err := attest.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	leader, err := NewLeader("gdo-0", shards[0], platform, authority)
	if err != nil {
		t.Fatal(err)
	}
	return leader, authority, shards
}

// TestLeaderReusesPreparedViewsAcrossRuns drives one Leader through two
// consecutive and then two concurrent runs over the same shard and reference
// matrices: every run must return the same selection and leave the enclave's
// accounted memory where it found it.
func TestLeaderReusesPreparedViewsAcrossRuns(t *testing.T) {
	cohort := testCohort(t, 120, 300, 17)
	leader, authority, shards := longLivedLeader(t, cohort)
	cfg, policy := core.DefaultConfig(), core.CollusionPolicy{F: 1}
	run := func() (*Result, error) {
		return runWithLeader(nil, leader, authority, 0, shards, cohort.Reference, cfg, policy, RunOptions{}, pipeChannel, chaosHooks{})
	}

	idle := leader.enclave.MemoryUsed()
	first, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if first.Report.PeakEnclaveBytes <= idle {
		t.Fatal("the run accounted no enclave memory")
	}
	if used := leader.enclave.MemoryUsed(); used != idle {
		t.Fatalf("enclave holds %d bytes after the first run, %d before it", used, idle)
	}
	second, err := run()
	if err != nil {
		t.Fatal(err)
	}
	results := []*Result{second, nil, nil}
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := 1; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = run()
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i+2, errs[i])
		}
		if !reflect.DeepEqual(res.Report.Selection, first.Report.Selection) {
			t.Errorf("run %d selected %v, the first run %v", i+2, res.Report.Selection, first.Report.Selection)
		}
	}
	if used := leader.enclave.MemoryUsed(); used != idle {
		t.Errorf("enclave holds %d bytes after four runs, %d before them", used, idle)
	}
}

// rewriteColumns is a member-side provider that distorts the column list of
// every pattern request before its own shard provider sees it — what a
// corrupted or hostile Phase-3 broadcast looks like from the member's checks.
type rewriteColumns struct {
	core.Provider
	rewrite func([]int) []int
}

func (r rewriteColumns) LRPattern(cols []int) (*lrtest.BitMatrix, error) {
	return r.Provider.LRPattern(r.rewrite(append([]int(nil), cols...)))
}

// TestBadPatternColumnsAreErrorsNotPanics covers both ends of a bad Phase-3
// column list: the member answers KindError and keeps serving, and the leader
// attributes the failure to that member and phase — and, the run having died
// mid-protocol, leaves none of its count vectors accounted to the enclave.
func TestBadPatternColumnsAreErrorsNotPanics(t *testing.T) {
	cohort := testCohort(t, 120, 300, 17)
	l := cohort.Case.L()
	rewrites := map[string]struct {
		rewrite func([]int) []int
		want    string
	}{
		"out of range": {func(cols []int) []int { return append(cols, l) }, "out of range"},
		"negative":     {func(cols []int) []int { cols[0] = -1; return cols }, "out of range"},
		"duplicate":    {func(cols []int) []int { return append(cols, cols[0]) }, "duplicate column"},
	}

	t.Run("leader", func(t *testing.T) {
		for name, rw := range rewrites {
			leader, authority, shards := longLivedLeader(t, cohort)
			rw := rw
			_, err := runWithLeader(nil, leader, authority, 0, shards, cohort.Reference, core.DefaultConfig(), core.CollusionPolicy{},
				RunOptions{}, pipeChannel, chaosHooks{prep: func(shardIdx int, m *Member) {
					if shardIdx == 2 {
						m.WrapProvider(func(p core.Provider) core.Provider { return rewriteColumns{p, rw.rewrite} })
					}
				}})
			var me *core.MemberError
			if !errors.As(err, &me) || me.Member != 2 || me.Phase != core.PhaseLR {
				t.Fatalf("%s: leader returned %v, want a MemberError for member 2 in %s", name, err, core.PhaseLR)
			}
			if !errors.Is(err, ErrMemberReported) || !strings.Contains(err.Error(), rw.want) {
				t.Errorf("%s: leader error %q does not carry the member's %q report", name, err, rw.want)
			}
			if used := leader.enclave.MemoryUsed(); used != 0 {
				t.Errorf("%s: enclave holds %d bytes after the failed run", name, used)
			}
		}
	})

	t.Run("member", func(t *testing.T) {
		conn := memberSession(t, cohort.Case, nil)
		good := []int{3, 1, l - 1}
		for name, rw := range rewrites {
			reply := ask(t, conn, KindLRRequest, encodeLRRequest(rw.rewrite(append([]int(nil), good...))))
			if reply.Kind != KindError || !strings.Contains(string(reply.Payload), rw.want) {
				t.Errorf("%s request: reply kind %d %q, want KindError naming %q", name, reply.Kind, reply.Payload, rw.want)
			}
		}
		// The session survives: the well-formed list is still answered.
		if reply := ask(t, conn, KindLRRequest, encodeLRRequest(good)); reply.Kind != KindLRReply {
			t.Fatalf("well-formed pattern request after the bad ones: reply kind %d", reply.Kind)
		}
	})

}

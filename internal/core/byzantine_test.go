package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gendpr/internal/checkpoint"
	"gendpr/internal/genome"
	"gendpr/internal/wire"
)

// byzantineFixture builds a 4-member federation where member `bad` is wrapped
// in a ByzantineProvider, plus the expected selection over the 3 honest
// survivors.
func byzantineFixture(t *testing.T, bad int, mode ByzantineMode, n int) ([]Provider, *genome.Matrix, *Report) {
	t.Helper()
	cohort := testCohort(t, 120, 320, 43)
	shards := shardsOf(t, cohort, 4)

	providers := make([]Provider, len(shards))
	survivors := make([]*genome.Matrix, 0, len(shards)-1)
	for i, s := range shards {
		if i == bad {
			providers[i] = NewByzantineProvider(NewLocalMember(s), mode, n)
			continue
		}
		providers[i] = NewLocalMember(s)
		survivors = append(survivors, s)
	}
	want, err := RunDistributed(survivors, cohort.Reference, DefaultConfig(), CollusionPolicy{})
	if err != nil {
		t.Fatalf("survivor baseline: %v", err)
	}
	return providers, cohort.Reference, want
}

// TestByzantineModesQuarantined drives each semantic fault through the
// Byzantine-aware resilient runner: the misbehaving member must be excluded
// with an attributing blame record, and the degraded selection must be
// bit-identical to the honest survivors' baseline.
func TestByzantineModesQuarantined(t *testing.T) {
	cases := []struct {
		mode  ByzantineMode
		phase string
	}{
		{ByzantineCountsOverflow, PhaseSummary},
		{ByzantinePairSkew, PhaseLD},
		{ByzantinePatternFlip, PhaseLR},
		{ByzantineJointCount, PhaseLD},
	}
	for _, tc := range cases {
		t.Run(tc.mode.String(), func(t *testing.T) {
			providers, ref, want := byzantineFixture(t, 1, tc.mode, 1)
			var events []string
			res := Resilience{MinQuorum: 2, Byzantine: true, OnTransition: func(member, event, phase string) {
				events = append(events, fmt.Sprintf("%s/%s/%s", member, event, phase))
			}}
			rep, err := RunAssessment(providers, ref, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{Resilience: res})
			if err != nil {
				t.Fatalf("RunAssessment: %v", err)
			}
			if len(rep.Excluded) != 1 || rep.Excluded[0] != 1 {
				t.Fatalf("Excluded = %v, want [1]", rep.Excluded)
			}
			if len(rep.Blamed) != 1 {
				t.Fatalf("Blamed = %+v, want one record", rep.Blamed)
			}
			b := rep.Blamed[0]
			if b.Kind != BlameInvalidPayload || b.Phase != tc.phase || b.Member != "member 1" {
				t.Errorf("blame = %+v, want invalid-payload against member 1 in %s", b, tc.phase)
			}
			if b.Query == "" {
				t.Error("blame record does not name the violated invariant")
			}
			if !rep.Selection.Equal(want.Selection) {
				t.Errorf("quarantined selection %v != survivor baseline %v", rep.Selection, want.Selection)
			}
			if len(events) != 1 || events[0] != "member 1/byzantine/"+tc.phase {
				t.Errorf("transition events = %v, want one byzantine event in %s", events, tc.phase)
			}
		})
	}
}

// TestByzantineDisabledStaysFatal pins the conservative default: without
// Resilience.Byzantine an invalid payload still aborts the whole run, so
// enabling quarantine is an explicit operator decision.
func TestByzantineDisabledStaysFatal(t *testing.T) {
	providers, ref, _ := byzantineFixture(t, 1, ByzantineCountsOverflow, 1)
	_, err := RunAssessment(providers, ref, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{Resilience: Resilience{MinQuorum: 2}})
	if err == nil {
		t.Fatal("expected the invalid payload to abort with Byzantine handling off")
	}
	if !errors.Is(err, ErrInvalidPayload) {
		t.Errorf("error = %v, want ErrInvalidPayload in chain", err)
	}
}

// rejoinProvider wraps a LocalMember that fails at the LD phase until its
// session is re-established via Rejoin. The audit answer is pluggable so the
// same fixture covers the honest-rejoin and equivocating-rejoin cases.
type rejoinProvider struct {
	*LocalMember
	healed     bool
	equivocate bool
	rejoins    int
}

func (p *rejoinProvider) PairStats(a, b int) (genome.PairStats, error) {
	if !p.healed {
		return genome.PairStats{}, fmt.Errorf("conn reset: %w", ErrMemberFailed)
	}
	return p.LocalMember.PairStats(a, b)
}

func (p *rejoinProvider) PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error) {
	if !p.healed {
		return nil, fmt.Errorf("conn reset: %w", ErrMemberFailed)
	}
	return p.LocalMember.PairStatsBatch(pairs)
}

func (p *rejoinProvider) Rejoin() error {
	p.rejoins++
	p.healed = true
	return nil
}

func (p *rejoinProvider) AuditSummary() ([]int64, int64, error) {
	counts, err := p.LocalMember.Counts()
	if err != nil {
		return nil, 0, err
	}
	caseN, err := p.LocalMember.CaseN()
	if err != nil {
		return nil, 0, err
	}
	if p.equivocate {
		counts = equivocateCounts(counts, caseN)
	}
	return counts, caseN, nil
}

// TestRejoinAfterCrash exercises the full exclude-then-rejoin cycle: a member
// that drops mid-run re-attests at the restart boundary, passes the summary
// audit, and rejoins — the final selection must be bit-identical to the
// fault-free full-membership baseline with no exclusions left.
func TestRejoinAfterCrash(t *testing.T) {
	cohort := testCohort(t, 120, 320, 47)
	shards := shardsOf(t, cohort, 4)
	providers := make([]Provider, len(shards))
	var bad *rejoinProvider
	for i, s := range shards {
		if i == 2 {
			bad = &rejoinProvider{LocalMember: NewLocalMember(s)}
			providers[i] = bad
			continue
		}
		providers[i] = NewLocalMember(s)
	}
	want, err := RunDistributed(shards, cohort.Reference, DefaultConfig(), CollusionPolicy{})
	if err != nil {
		t.Fatalf("full baseline: %v", err)
	}

	var events []string
	res := Resilience{MinQuorum: 2, Byzantine: true, AllowRejoin: true, OnTransition: func(member, event, phase string) {
		events = append(events, member+"/"+event)
	}}
	rep, err := RunAssessment(providers, cohort.Reference, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{Resilience: res})
	if err != nil {
		t.Fatalf("RunAssessment: %v", err)
	}
	if len(rep.Excluded) != 0 {
		t.Fatalf("Excluded = %v, want none after rejoin", rep.Excluded)
	}
	if len(rep.Rejoined) != 1 || rep.Rejoined[0] != 2 {
		t.Fatalf("Rejoined = %v, want [2]", rep.Rejoined)
	}
	if bad.rejoins != 1 {
		t.Errorf("rejoins = %d, want exactly one re-attestation", bad.rejoins)
	}
	if !rep.Selection.Equal(want.Selection) {
		t.Errorf("rejoined selection %v != full baseline %v", rep.Selection, want.Selection)
	}
	if len(events) != 2 || events[0] != "member 2/excluded" || events[1] != "member 2/rejoined" {
		t.Errorf("transition events = %v, want excluded then rejoined", events)
	}
}

// TestRejoinAuditCatchesEquivocator pins the adversarial rejoin: a member
// whose post-rejoin summary differs from its pre-exclusion answers is
// upgraded to a quarantine — blamed, never re-admitted — and the run degrades
// to the survivors.
func TestRejoinAuditCatchesEquivocator(t *testing.T) {
	cohort := testCohort(t, 120, 320, 53)
	shards := shardsOf(t, cohort, 4)
	providers := make([]Provider, len(shards))
	survivors := make([]*genome.Matrix, 0, 3)
	for i, s := range shards {
		if i == 2 {
			providers[i] = &rejoinProvider{LocalMember: NewLocalMember(s), equivocate: true}
			continue
		}
		providers[i] = NewLocalMember(s)
		survivors = append(survivors, s)
	}
	want, err := RunDistributed(survivors, cohort.Reference, DefaultConfig(), CollusionPolicy{})
	if err != nil {
		t.Fatalf("survivor baseline: %v", err)
	}

	res := Resilience{MinQuorum: 2, Byzantine: true, AllowRejoin: true}
	rep, err := RunAssessment(providers, cohort.Reference, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{Resilience: res})
	if err != nil {
		t.Fatalf("RunAssessment: %v", err)
	}
	if len(rep.Excluded) != 1 || rep.Excluded[0] != 2 {
		t.Fatalf("Excluded = %v, want [2]", rep.Excluded)
	}
	if len(rep.Rejoined) != 0 {
		t.Fatalf("Rejoined = %v: an equivocator must never be re-admitted", rep.Rejoined)
	}
	if len(rep.Blamed) != 1 || rep.Blamed[0].Kind != BlameEquivocation {
		t.Fatalf("Blamed = %+v, want one equivocation record", rep.Blamed)
	}
	if len(rep.Blamed[0].Prior) == 0 || len(rep.Blamed[0].Observed) == 0 {
		t.Error("equivocation blame carries no digest evidence")
	}
	if !rep.Selection.Equal(want.Selection) {
		t.Errorf("selection %v != survivor baseline %v", rep.Selection, want.Selection)
	}
}

// equivocatingAuditor answers the normal protocol honestly but a summary
// audit with a perturbed summary — the profile of a member that changed its
// story between two leaders.
type equivocatingAuditor struct {
	*LocalMember
}

func (p *equivocatingAuditor) AuditSummary() ([]int64, int64, error) {
	counts, err := p.LocalMember.Counts()
	if err != nil {
		return nil, 0, err
	}
	caseN, err := p.LocalMember.CaseN()
	if err != nil {
		return nil, 0, err
	}
	return equivocateCounts(counts, caseN), caseN, nil
}

// keepStore wraps a checkpoint store whose Clear is a no-op, so a completed
// run leaves its final checkpoint behind for a second run to resume.
type keepStore struct{ checkpoint.Store }

func (keepStore) Clear() error { return nil }

// TestResumeAuditCatchesEquivocation covers the restarted-leader probe: a
// run resumed from a checkpoint challenges every auditable member to
// reproduce its recorded summary, quarantines the one that answers
// differently, persists the blame into the next checkpoint stream, and
// completes over the survivors.
func TestResumeAuditCatchesEquivocation(t *testing.T) {
	cohort := testCohort(t, 120, 320, 59)
	shards := shardsOf(t, cohort, 4)
	names := []string{"gdo-0", "gdo-1", "gdo-2", "gdo-3"}
	store := keepStore{checkpoint.NewMemStore()}

	honest := make([]Provider, len(shards))
	for i, s := range shards {
		honest[i] = NewLocalMember(s)
	}
	opts := AssessmentOptions{ProviderNames: names, Checkpoints: store}
	if _, err := RunAssessment(honest, cohort.Reference, DefaultConfig(), CollusionPolicy{}, nil, opts); err != nil {
		t.Fatalf("seeding run: %v", err)
	}

	// The restarted leader sees the same federation, except member 3 now
	// answers audits with a different summary than it reported before.
	resumed := make([]Provider, len(shards))
	survivors := make([]*genome.Matrix, 0, 3)
	for i, s := range shards {
		if i == 3 {
			resumed[i] = &equivocatingAuditor{LocalMember: NewLocalMember(s)}
			continue
		}
		resumed[i] = NewLocalMember(s)
		survivors = append(survivors, s)
	}
	opts.Resilience = Resilience{MinQuorum: 2, Byzantine: true}
	rep, err := RunAssessment(resumed, cohort.Reference, DefaultConfig(), CollusionPolicy{}, nil, opts)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if len(rep.Excluded) != 1 || rep.Excluded[0] != 3 {
		t.Fatalf("Excluded = %v, want [3]", rep.Excluded)
	}
	if len(rep.Blamed) != 1 {
		t.Fatalf("Blamed = %+v, want one record", rep.Blamed)
	}
	b := rep.Blamed[0]
	if b.Kind != BlameEquivocation || b.Member != "gdo-3" || b.Phase != PhaseSummary || b.Query != "summary" {
		t.Errorf("blame = %+v, want summary equivocation against gdo-3", b)
	}
	want, err := RunDistributed(survivors, cohort.Reference, DefaultConfig(), CollusionPolicy{})
	if err != nil {
		t.Fatalf("survivor baseline: %v", err)
	}
	if !rep.Selection.Equal(want.Selection) {
		t.Errorf("selection %v != survivor baseline %v", rep.Selection, want.Selection)
	}

	// The blame must have been persisted at the survivors' checkpoint
	// boundaries, so a further failover would still know about it.
	st, err := store.Load()
	if err != nil {
		t.Fatalf("Load final checkpoint: %v", err)
	}
	if len(st.Blamed) != 1 || st.Blamed[0].Kind != BlameEquivocation || st.Blamed[0].Member != "gdo-3" {
		t.Errorf("checkpointed blame = %+v, want the gdo-3 equivocation", st.Blamed)
	}
}

// auditBarrier releases the summary audits of a resumed run only once every
// auditable member has been challenged, or fails them all when the deadline
// passes first.
type auditBarrier struct {
	mu      sync.Mutex
	pending int
	all     chan struct{}
	expired <-chan time.Time
}

// barrierAuditor answers the summary audit honestly, but only once the
// barrier opens: a leader that challenges members one after another never
// gets its first answer before the deadline.
type barrierAuditor struct {
	*LocalMember
	b *auditBarrier
}

func (p *barrierAuditor) AuditSummary() ([]int64, int64, error) {
	p.b.mu.Lock()
	p.b.pending--
	if p.b.pending == 0 {
		close(p.b.all)
	}
	p.b.mu.Unlock()
	select {
	case <-p.b.all:
	case <-p.b.expired:
		return nil, 0, errors.New("audit answered alone: the other members were not challenged")
	}
	counts, err := p.Counts()
	if err != nil {
		return nil, 0, err
	}
	caseN, err := p.CaseN()
	return counts, caseN, err
}

// TestResumeAuditChallengesMembersAtOnce: a resumed Byzantine-aware run
// challenges its auditable members concurrently. The auditors of G−1 members
// answer only after all of them have been called, so a serial audit loop
// runs into the deadline and loses members the concurrent one keeps.
func TestResumeAuditChallengesMembersAtOnce(t *testing.T) {
	const g = 5
	cohort := testCohort(t, 80, 250, 61)
	shards := shardsOf(t, cohort, g)
	store := keepStore{checkpoint.NewMemStore()}
	honest := make([]Provider, g)
	for i, s := range shards {
		honest[i] = NewLocalMember(s)
	}
	opts := AssessmentOptions{ProviderNames: []string{"gdo-0", "gdo-1", "gdo-2", "gdo-3", "gdo-4"}, Checkpoints: store}
	want, err := RunAssessment(honest, cohort.Reference, DefaultConfig(), CollusionPolicy{}, nil, opts)
	if err != nil {
		t.Fatalf("seeding run: %v", err)
	}

	b := &auditBarrier{pending: g - 1, all: make(chan struct{}), expired: time.After(10 * time.Second)}
	resumed := []Provider{NewLocalMember(shards[0])}
	for _, s := range shards[1:] {
		resumed = append(resumed, &barrierAuditor{LocalMember: NewLocalMember(s), b: b})
	}
	opts.Resilience = Resilience{MinQuorum: 2, Byzantine: true}
	rep, err := RunAssessment(resumed, cohort.Reference, DefaultConfig(), CollusionPolicy{}, nil, opts)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if len(rep.Excluded) != 0 || len(rep.Blamed) != 0 {
		t.Fatalf("Excluded = %v, Blamed = %+v: an honest federation lost members to the audit", rep.Excluded, rep.Blamed)
	}
	if !rep.Resumed {
		t.Error("the second run did not resume from the checkpoint")
	}
	if !rep.Selection.Equal(want.Selection) {
		t.Errorf("resumed selection %v != seeding run %v", rep.Selection, want.Selection)
	}
}

// TestDigestSummaryProperties pins the digest the equivocation ledger keys
// on: deterministic, sensitive to every field, and length-delimited (a count
// moved between the population and the vector changes the digest). A
// summary its packed wire form cannot carry has no digest.
func TestDigestSummaryProperties(t *testing.T) {
	digest := func(counts []int64, caseN int64) [32]byte {
		t.Helper()
		d, err := DigestSummary(counts, caseN)
		if err != nil {
			t.Fatalf("DigestSummary(%v, %d): %v", counts, caseN, err)
		}
		return d
	}
	base := digest([]int64{3, 1, 4}, 10)
	if base != digest([]int64{3, 1, 4}, 10) {
		t.Fatal("digest is not deterministic")
	}
	if base == digest([]int64{3, 1, 5}, 10) {
		t.Fatal("digest ignores count perturbation")
	}
	if base == digest([]int64{3, 1, 4}, 11) {
		t.Fatal("digest ignores population")
	}
	if digest([]int64{3, 1}, 4) == digest([]int64{3, 1, 4}, 4) {
		t.Fatal("digest ignores vector length")
	}
	for _, bad := range []struct {
		counts []int64
		caseN  int64
	}{{[]int64{-1}, 10}, {[]int64{16}, 10}, {nil, -1}} {
		if _, err := DigestSummary(bad.counts, bad.caseN); !errors.Is(err, ErrInvalidPayload) {
			t.Errorf("DigestSummary(%v, %d) = %v, want ErrInvalidPayload", bad.counts, bad.caseN, err)
		}
	}
}

// TestSkewedPairStatsPassSoloValidation proves the pair-skew fault is truly
// semantic: the perturbed statistics satisfy every single-payload invariant
// and only the cross-payload consistency check can reject them.
func TestSkewedPairStatsPassSoloValidation(t *testing.T) {
	honest := genome.PairStats{N: 50, SumX: 20, SumY: 15, SumXX: 20, SumYY: 15, SumXY: 10}
	skewed := skewPairStats(honest)
	if skewed == honest {
		t.Fatal("skew did not perturb the statistics")
	}
	if err := validatePairStats(skewed); err != nil {
		t.Fatalf("skewed stats fail solo validation (fault is not semantic): %v", err)
	}
	counts := []int64{20, 15}
	if err := validatePairConsistency(skewed, 0, 1, counts, 50); err == nil {
		t.Fatal("cross-payload consistency check missed the skew")
	}
	if err := validatePairConsistency(honest, 0, 1, counts, 50); err != nil {
		t.Fatalf("honest stats rejected: %v", err)
	}
}

// TestJointCountLieFailsValidationWithinWidth: the joint-count lie must be
// sendable (inside the packed width of the member's population) and caught
// by the single-payload bounds, on both sides of the feasible interval.
func TestJointCountLieFailsValidationWithinWidth(t *testing.T) {
	for _, honest := range []genome.PairStats{
		genome.PairStatsFromCounts(50, 20, 15, 10),
		genome.PairStatsFromCounts(12, 12, 12, 12), // x = y = n: only the floor is left
		genome.PairStatsFromCounts(12, 0, 3, 0),
	} {
		if err := validatePairStats(honest); err != nil {
			t.Fatalf("honest %+v rejected: %v", honest, err)
		}
		lie := lieJointCount(honest)
		if lie.SumXY < 0 || lie.SumXY>>wire.Width(lie.N) != 0 {
			t.Errorf("lie %+v does not fit the packed width of %d", lie, lie.N)
		}
		if err := validatePairStats(lie); !errors.Is(err, ErrInvalidPayload) {
			t.Errorf("lie %+v passed validation: %v", lie, err)
		}
	}
}

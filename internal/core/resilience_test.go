package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
)

// phaseFaultProvider wraps a LocalMember and fails permanently at one phase,
// simulating a member declared failed after the transport retry budget.
type phaseFaultProvider struct {
	*LocalMember
	failPhase string // PhaseSummary, PhaseLD, or PhaseLR
	fatal     bool   // when set, fail with a run-fatal (non-degradable) error
}

func (f *phaseFaultProvider) fail() error {
	if f.fatal {
		return errors.New("tampered payload")
	}
	return fmt.Errorf("conn reset: %w", ErrMemberFailed)
}

func (f *phaseFaultProvider) Counts() ([]int64, error) {
	if f.failPhase == PhaseSummary {
		return nil, f.fail()
	}
	return f.LocalMember.Counts()
}

func (f *phaseFaultProvider) PairStats(a, b int) (genome.PairStats, error) {
	if f.failPhase == PhaseLD {
		return genome.PairStats{}, f.fail()
	}
	return f.LocalMember.PairStats(a, b)
}

func (f *phaseFaultProvider) PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error) {
	if f.failPhase == PhaseLD {
		return nil, f.fail()
	}
	return f.LocalMember.PairStatsBatch(pairs)
}

func (f *phaseFaultProvider) LRMatrix(cols []int, caseFreq, refFreq []float64) (*lrtest.BitMatrix, error) {
	if f.failPhase == PhaseLR {
		return nil, f.fail()
	}
	return f.LocalMember.LRMatrix(cols, caseFreq, refFreq)
}

func (f *phaseFaultProvider) LRPattern(cols []int) (*lrtest.BitMatrix, error) {
	if f.failPhase == PhaseLR {
		return nil, f.fail()
	}
	return f.LocalMember.LRPattern(cols)
}

// resilienceFixture builds a 4-member federation where member `bad` fails at
// `phase`, plus the expected degraded selection over the 3 survivors.
func resilienceFixture(t *testing.T, bad int, phase string, fatal bool) ([]Provider, *genome.Matrix, *Report) {
	t.Helper()
	cohort := testCohort(t, 120, 320, 29)
	shards := shardsOf(t, cohort, 4)

	providers := make([]Provider, len(shards))
	survivors := make([]*genome.Matrix, 0, len(shards)-1)
	for i, s := range shards {
		if i == bad {
			providers[i] = &phaseFaultProvider{LocalMember: NewLocalMember(s), failPhase: phase, fatal: fatal}
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

func TestResilientDegradesPerPhase(t *testing.T) {
	for _, phase := range []string{PhaseSummary, PhaseLD, PhaseLR} {
		t.Run(phase, func(t *testing.T) {
			providers, ref, want := resilienceFixture(t, 1, phase, false)
			rep, err := RunAssessment(providers, ref, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{Resilience: Resilience{MinQuorum: 2}})
			if err != nil {
				t.Fatalf("RunAssessment: %v", err)
			}
			if len(rep.Excluded) != 1 || rep.Excluded[0] != 1 {
				t.Fatalf("Excluded = %v, want [1]", rep.Excluded)
			}
			if !rep.Selection.Equal(want.Selection) {
				t.Errorf("degraded selection %v != survivor baseline %v", rep.Selection, want.Selection)
			}
		})
	}
}

func TestResilientFatalErrorAborts(t *testing.T) {
	providers, ref, _ := resilienceFixture(t, 2, PhaseLD, true)
	_, err := RunAssessment(providers, ref, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{Resilience: Resilience{MinQuorum: 2}})
	if err == nil {
		t.Fatal("expected a run-fatal error")
	}
	var me *MemberError
	if !errors.As(err, &me) {
		t.Fatalf("error %v does not attribute a member", err)
	}
	if me.Member != 2 || me.Phase != PhaseLD {
		t.Errorf("attributed member %d phase %q, want member 2 phase %q", me.Member, me.Phase, PhaseLD)
	}
}

func TestResilientQuorumLost(t *testing.T) {
	providers, ref, _ := resilienceFixture(t, 0, PhaseSummary, false)
	_, err := RunAssessment(providers, ref, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{Resilience: Resilience{MinQuorum: 4}})
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("error = %v, want ErrQuorumLost", err)
	}
}

func TestResilientDisabledMatchesBase(t *testing.T) {
	providers, ref, _ := resilienceFixture(t, 3, PhaseLR, false)
	_, err := RunAssessment(providers, ref, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{Resilience: Resilience{}})
	if err == nil {
		t.Fatal("expected the member failure to abort with degradation disabled")
	}
	if !errors.Is(err, ErrMemberFailed) {
		t.Errorf("error = %v, want ErrMemberFailed in chain", err)
	}
	if !strings.Contains(err.Error(), "member 3") || !strings.Contains(err.Error(), PhaseLR) {
		t.Errorf("error %q does not name member 3 and phase", err)
	}
}

func TestResilientPolicyUnsatisfiableOverSurvivors(t *testing.T) {
	cohort := testCohort(t, 100, 240, 31)
	shards := shardsOf(t, cohort, 2)
	providers := []Provider{
		NewLocalMember(shards[0]),
		&phaseFaultProvider{LocalMember: NewLocalMember(shards[1]), failPhase: PhaseSummary},
	}
	// Conservative collusion tolerance needs >= 2 members; degrading to 1
	// must abort rather than silently weakening the policy.
	_, err := RunAssessment(providers, cohort.Reference, DefaultConfig(), CollusionPolicy{Conservative: true}, nil, AssessmentOptions{Resilience: Resilience{MinQuorum: 1}})
	if err == nil {
		t.Fatal("expected policy-unsatisfiable error")
	}
	if !strings.Contains(err.Error(), "unsatisfiable") {
		t.Errorf("error %q does not mention the policy", err)
	}
}

func TestResilientWithCollusionPolicy(t *testing.T) {
	cohort := testCohort(t, 120, 320, 37)
	shards := shardsOf(t, cohort, 4)
	providers := make([]Provider, 4)
	survivors := make([]*genome.Matrix, 0, 3)
	for i, s := range shards {
		if i == 2 {
			providers[i] = &phaseFaultProvider{LocalMember: NewLocalMember(s), failPhase: PhaseLR}
			continue
		}
		providers[i] = NewLocalMember(s)
		survivors = append(survivors, s)
	}
	policy := CollusionPolicy{F: 1}
	rep, err := RunAssessment(providers, cohort.Reference, DefaultConfig(), policy, nil, AssessmentOptions{Resilience: Resilience{MinQuorum: 2}})
	if err != nil {
		t.Fatalf("RunAssessment: %v", err)
	}
	if len(rep.Excluded) != 1 || rep.Excluded[0] != 2 {
		t.Fatalf("Excluded = %v, want [2]", rep.Excluded)
	}
	want, err := RunDistributed(survivors, cohort.Reference, DefaultConfig(), policy)
	if err != nil {
		t.Fatalf("survivor baseline: %v", err)
	}
	if !rep.Selection.Equal(want.Selection) {
		t.Errorf("degraded selection %v != survivor baseline %v", rep.Selection, want.Selection)
	}
	if rep.Combinations != want.Combinations {
		t.Errorf("combinations = %d, want %d (re-enumerated over survivors)", rep.Combinations, want.Combinations)
	}
}

// restartLog is shared by the members of TestDegradedRestartReasksSurvivors:
// the attempt number moves on when the failing member refuses its pattern,
// which it does once every Phase-2 request of the first attempt is answered.
type restartLog struct {
	mu      sync.Mutex
	attempt int
	// asked counts, per attempt and member, how often each pair was asked.
	asked [2][]map[[2]int]int
	// batches and singles count each member's pair requests over the run.
	batches, singles []int
	// late counts the calls the failing member received after it failed.
	late int
}

// restartMember is one member of that test: it logs every pair request, and
// the failing one fails its pattern request as unreachable.
type restartMember struct {
	*LocalMember
	id   int
	fail bool
	log  *restartLog
}

// called logs one call of any kind; callers hold log.mu.
func (m *restartMember) called() {
	if m.fail && m.log.attempt > 0 {
		m.log.late++
	}
}

func (m *restartMember) note(pairs [][2]int, batch bool) {
	l := m.log
	l.mu.Lock()
	defer l.mu.Unlock()
	m.called()
	if batch {
		l.batches[m.id]++
	} else {
		l.singles[m.id]++
	}
	for _, p := range pairs {
		l.asked[l.attempt][m.id][p]++
	}
}

func (m *restartMember) PairStats(a, b int) (genome.PairStats, error) {
	m.note([][2]int{{a, b}}, false)
	return m.LocalMember.PairStats(a, b)
}

func (m *restartMember) PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error) {
	m.note(pairs, true)
	return m.LocalMember.PairStatsBatch(pairs)
}

func (m *restartMember) LRPattern(cols []int) (*lrtest.BitMatrix, error) {
	l := m.log
	l.mu.Lock()
	m.called()
	if m.fail {
		l.attempt = 1
		l.mu.Unlock()
		return nil, fmt.Errorf("conn reset: %w", ErrMemberFailed)
	}
	l.mu.Unlock()
	return m.LocalMember.LRPattern(cols)
}

func (m *restartMember) Counts() ([]int64, error) {
	m.log.mu.Lock()
	m.called()
	m.log.mu.Unlock()
	return m.LocalMember.Counts()
}

func (m *restartMember) CaseN() (int64, error) {
	m.log.mu.Lock()
	m.called()
	m.log.mu.Unlock()
	return m.LocalMember.CaseN()
}

// TestDegradedRestartReasksSurvivors pins the restart path now that the run's
// pair table is the only pair store: a G=4 federation whose member 3 fails
// on its Phase-3 pattern request restarts over the three survivors, which
// answer Phase 2 again. The selection equals a fresh run over the survivors;
// each survivor answers exactly two pair batches (one per attempt) and no
// single pair request; no member is asked a pair twice within one attempt;
// and the excluded member receives nothing after it failed.
func TestDegradedRestartReasksSurvivors(t *testing.T) {
	const g, bad = 4, 3
	cohort := testCohort(t, 120, 320, 29)
	shards := shardsOf(t, cohort, g)
	policy := CollusionPolicy{F: 1}
	log := &restartLog{batches: make([]int, g), singles: make([]int, g)}
	for a := range log.asked {
		for i := 0; i < g; i++ {
			log.asked[a] = append(log.asked[a], make(map[[2]int]int))
		}
	}
	providers := make([]Provider, g)
	survivors := make([]Provider, 0, g-1)
	for i, s := range shards {
		providers[i] = &restartMember{LocalMember: NewLocalMember(s), id: i, fail: i == bad, log: log}
		if i != bad {
			survivors = append(survivors, NewLocalMember(s))
		}
	}
	rep, err := RunAssessment(providers, cohort.Reference, DefaultConfig(), policy, nil, AssessmentOptions{Resilience: Resilience{MinQuorum: 2}})
	if err != nil {
		t.Fatalf("RunAssessment: %v", err)
	}
	if len(rep.Excluded) != 1 || rep.Excluded[0] != bad {
		t.Fatalf("Excluded = %v, want [%d]", rep.Excluded, bad)
	}
	want, err := RunAssessment(survivors, cohort.Reference, DefaultConfig(), policy, nil, AssessmentOptions{})
	if err != nil {
		t.Fatalf("fresh run over the survivors: %v", err)
	}
	if !rep.Selection.Equal(want.Selection) || len(rep.PerCombination) != len(want.PerCombination) {
		t.Fatalf("degraded selection %v over %d combinations, fresh run over the survivors %v over %d",
			rep.Selection, len(rep.PerCombination), want.Selection, len(want.PerCombination))
	}
	for c := range want.PerCombination {
		if !rep.PerCombination[c].Equal(want.PerCombination[c]) {
			t.Errorf("combination %d: %v, fresh run %v", c, rep.PerCombination[c], want.PerCombination[c])
		}
	}

	if log.attempt != 1 {
		t.Fatalf("member %d never failed its pattern request", bad)
	}
	for i := 0; i < g; i++ {
		if i != bad && (log.batches[i] != 2 || log.singles[i] != 0) {
			t.Errorf("survivor %d answered %d pair batches and %d single requests, want 2 and 0", i, log.batches[i], log.singles[i])
		}
		for a, asked := range log.asked {
			for p, n := range asked[i] {
				if n > 1 {
					t.Errorf("attempt %d: member %d was asked pair %v %d times", a+1, i, p, n)
				}
			}
		}
	}
	if log.late != 0 {
		t.Errorf("the excluded member received %d calls after it failed", log.late)
	}
}

func TestFailedMembersWalksJoinedErrors(t *testing.T) {
	degr0 := memberErr(0, PhaseSummary, "x: %w", ErrMemberFailed)
	degr2 := memberErr(2, PhaseLR, "y: %w", ErrMemberFailed)
	fatal1 := memberErr(1, PhaseLD, "tampered")
	joined := fmt.Errorf("wrap: %w", errors.Join(degr0, fatal1, degr2))
	got := FailedMembers(joined)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("FailedMembers = %v, want [0 2]", got)
	}
	if got := FailedMembers(fatal1); len(got) != 0 {
		t.Fatalf("fatal-only error yielded %v", got)
	}
	if got := FailedMembers(nil); len(got) != 0 {
		t.Fatalf("nil error yielded %v", got)
	}
}

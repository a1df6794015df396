package core

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"gendpr/internal/checkpoint"
	"gendpr/internal/enclave"
	"gendpr/internal/genome"
)

// snapshotStore passes the first keep saves through to the inner store and
// silently drops the rest — the on-disk view of a leader that crashed right
// after its keep-th phase-boundary save. Clear is dropped too (a crashed
// leader never cleans up). Every save, kept or dropped, is held to the
// Store.Save contract by contractStore.
type snapshotStore struct {
	contract contractStore
	inner    checkpoint.Store
	keep     int
}

func newSnapshotStore(t *testing.T, inner checkpoint.Store, keep int) *snapshotStore {
	return &snapshotStore{contract: contractStore{t: t}, inner: inner, keep: keep}
}

func (s *snapshotStore) Save(st *checkpoint.State) error {
	_ = s.contract.Save(st)
	if s.contract.saves > s.keep {
		return nil
	}
	return s.inner.Save(st)
}

func (s *snapshotStore) Load() (*checkpoint.State, error) { return s.inner.Load() }
func (s *snapshotStore) Clear() error                     { return nil }

// contractStore asserts the Store.Save contract a FileStore's log relies on:
// between two saves of one Stage the state only grows its Combinations, and
// every other field is unchanged. It counts saves and passes them to Store
// when that is set.
type contractStore struct {
	checkpoint.Store
	t     *testing.T
	prev  *checkpoint.State
	saves int
}

func (s *contractStore) Save(st *checkpoint.State) error {
	s.saves++
	// A deep copy: the saver keeps appending to st after Save returns. Save
	// runs on Phase-3 workers, so failures are reported, never fatal.
	cur, err := checkpoint.Decode(checkpoint.Encode(st))
	if err != nil {
		s.t.Errorf("save %d: %v", s.saves, err)
		return err
	}
	if prev := s.prev; prev != nil && prev.Stage == cur.Stage {
		n := len(prev.Combinations)
		grown := *cur
		if len(cur.Combinations) < n {
			s.t.Errorf("save %d: %d combinations after %d at the same stage", s.saves, len(cur.Combinations), n)
		} else if grown.Combinations = cur.Combinations[:n]; !reflect.DeepEqual(&grown, prev) {
			s.t.Errorf("save %d at stage %v changed more than appending combinations", s.saves, cur.Stage)
		}
	}
	s.prev = cur
	if s.Store == nil {
		return nil
	}
	return s.Store.Save(st)
}

func checkpointFixture(t *testing.T) ([]*genome.Matrix, *genome.Matrix) {
	t.Helper()
	cohort := testCohort(t, 60, 48, 11)
	return shardsOf(t, cohort, 3), cohort.Reference
}

func providersFor(shards []*genome.Matrix, order []int) ([]Provider, []string) {
	names := []string{"gdo-a", "gdo-b", "gdo-c"}
	ps := make([]Provider, len(order))
	ns := make([]string, len(order))
	for slot, i := range order {
		ps[slot] = NewLocalMember(shards[i])
		ns[slot] = names[i]
	}
	return ps, ns
}

// TestResumeFromCheckpointBitIdentical crashes a leader after each save
// boundary in turn, then resumes under a leader that enumerates the providers
// in a different order, and demands the resumed result equal the undisturbed
// baseline bit for bit.
func TestResumeFromCheckpointBitIdentical(t *testing.T) {
	shards, ref := checkpointFixture(t)
	cfg := DefaultConfig()
	for _, policy := range []CollusionPolicy{{}, {F: 1}} {
		baselineProviders, _ := providersFor(shards, []int{0, 1, 2})
		baseline, err := RunAssessment(baselineProviders, ref, cfg, policy, nil, AssessmentOptions{})
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}

		subsets, err := evaluationSubsets(len(shards), policy)
		if err != nil {
			t.Fatal(err)
		}
		maxSaves := 2 + len(subsets) // MAF, LD, one per combination
		for keep := 1; keep <= maxSaves; keep++ {
			snap := newSnapshotStore(t, checkpoint.NewMemStore(), keep)
			ps, names := providersFor(shards, []int{0, 1, 2})
			if _, err := RunAssessment(ps, ref, cfg, policy, nil, AssessmentOptions{
				ProviderNames: names,
				Checkpoints:   snap,
			}); err != nil {
				t.Fatalf("policy %+v keep %d: first run: %v", policy, keep, err)
			}

			// Resume with the provider slots shuffled: the new leader claims
			// the checkpoint by identity name, not position.
			ps2, names2 := providersFor(shards, []int{2, 0, 1})
			report, err := RunAssessment(ps2, ref, cfg, policy, nil, AssessmentOptions{
				ProviderNames: names2,
				Checkpoints:   snap.inner,
			})
			if err != nil {
				t.Fatalf("policy %+v keep %d: resume: %v", policy, keep, err)
			}
			if !report.Resumed {
				t.Errorf("policy %+v keep %d: Resumed not set", policy, keep)
			}
			if !report.Selection.Equal(baseline.Selection) {
				t.Errorf("policy %+v keep %d: resumed selection %v != baseline %v",
					policy, keep, report.Selection, baseline.Selection)
			}
			if report.Selection.Power != baseline.Selection.Power {
				t.Errorf("policy %+v keep %d: resumed power %v != baseline %v",
					policy, keep, report.Selection.Power, baseline.Selection.Power)
			}
			// A successful resumed run clears its store.
			if _, err := snap.inner.Load(); !errors.Is(err, checkpoint.ErrNotFound) {
				t.Errorf("policy %+v keep %d: store not cleared after success: %v", policy, keep, err)
			}
		}
	}
}

// TestCheckpointFingerprintMismatchStartsFresh writes a checkpoint under one
// configuration and asserts a run with a different cutoff ignores it.
func TestCheckpointFingerprintMismatchStartsFresh(t *testing.T) {
	shards, ref := checkpointFixture(t)
	store := checkpoint.NewMemStore()

	ps, names := providersFor(shards, []int{0, 1, 2})
	snap := newSnapshotStore(t, store, 2)
	if _, err := RunAssessment(ps, ref, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{
		ProviderNames: names, Checkpoints: snap,
	}); err != nil {
		t.Fatalf("first run: %v", err)
	}

	altered := DefaultConfig()
	altered.MAFCutoff = 0.10
	ps2, names2 := providersFor(shards, []int{0, 1, 2})
	report, err := RunAssessment(ps2, ref, altered, CollusionPolicy{}, nil, AssessmentOptions{
		ProviderNames: names2, Checkpoints: store,
	})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if report.Resumed {
		t.Error("run resumed from a checkpoint with a different fingerprint")
	}

	ctrl, err := RunAssessment(ps2, ref, altered, CollusionPolicy{}, nil, AssessmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Selection.Equal(ctrl.Selection) {
		t.Errorf("fresh run over stale checkpoint diverged: %v != %v", report.Selection, ctrl.Selection)
	}
}

// TestAssessmentContextCancel pre-cancels the context and expects the run to
// fail with ctx.Err() without contacting members.
func TestAssessmentContextCancel(t *testing.T) {
	shards, ref := checkpointFixture(t)
	ps, _ := providersFor(shards, []int{0, 1, 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunAssessment(ps, ref, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// TestValidationRejectsTamperedSummaries feeds the leader impossible counts
// and expects a run-fatal MemberError wrapping ErrInvalidPayload that the
// resilient runner refuses to degrade away.
func TestValidationRejectsTamperedSummaries(t *testing.T) {
	shards, ref := checkpointFixture(t)
	ps, _ := providersFor(shards, []int{0, 1, 2})
	tampered := &tamperedProvider{Provider: ps[1]}
	ps[1] = tampered

	_, err := RunAssessment(ps, ref, DefaultConfig(), CollusionPolicy{}, nil, AssessmentOptions{Resilience: Resilience{MinQuorum: 1}})
	if err == nil {
		t.Fatal("tampered counts were accepted")
	}
	if !errors.Is(err, ErrInvalidPayload) {
		t.Fatalf("error = %v, want ErrInvalidPayload", err)
	}
	var me *MemberError
	if !errors.As(err, &me) || me.Member != 1 {
		t.Fatalf("error = %v, want MemberError for member 1", err)
	}
	if got := FailedMembers(err); len(got) != 0 {
		t.Fatalf("tampering classified as degradable member failure: %v", got)
	}
}

// tamperedProvider reports a count exceeding its population.
type tamperedProvider struct {
	Provider
}

func (p *tamperedProvider) Counts() ([]int64, error) {
	counts, err := p.Provider.Counts()
	if err != nil {
		return nil, err
	}
	out := append([]int64(nil), counts...)
	out[0] = 1 << 40 // impossibly large
	return out, nil
}

// pairLog is a LocalMember that records every pair the leader asks it for,
// batched or single, and every request in the order it arrived.
type pairLog struct {
	*LocalMember
	mu       sync.Mutex
	requests int
	asked    map[[2]int]bool
	seq      [][][2]int
}

func (p *pairLog) note(pairs [][2]int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.requests++
	if p.asked == nil {
		p.asked = make(map[[2]int]bool)
	}
	for _, pair := range pairs {
		p.asked[pair] = true
	}
	p.seq = append(p.seq, append([][2]int(nil), pairs...))
}

func (p *pairLog) PairStats(a, b int) (genome.PairStats, error) {
	p.note([][2]int{{a, b}})
	return p.LocalMember.PairStats(a, b)
}

func (p *pairLog) PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error) {
	p.note(pairs)
	return p.LocalMember.PairStatsBatch(pairs)
}

// logPairs wraps each LocalMember in a pairLog.
func logPairs(providers []Provider) ([]Provider, []*pairLog) {
	out := make([]Provider, len(providers))
	logs := make([]*pairLog, len(providers))
	for i, p := range providers {
		logs[i] = &pairLog{LocalMember: p.(*LocalMember)}
		out[i] = logs[i]
	}
	return out, logs
}

// TestPairBytesReleasedAtPhase2Boundary pins the pair statistics' lifetime
// in the leader enclave: every pair Phase 2 touched is accounted at 48 B for
// the reference panel's contribution plus 48 B per member's, and those bytes
// are held exactly until the Phase-2 save. At the first Phase-3 save the
// enclave holds less than at the Phase-2 save by exactly the pair bytes, once
// what Phase 3 has accounted by then is added back: the reference pattern,
// one pattern per member, and the full membership's merged matrix with its
// reskin.
func TestPairBytesReleasedAtPhase2Boundary(t *testing.T) {
	providers, ref, names := conservativeG5(t)
	providers, logs := logPairs(providers)
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	leader, err := platform.Load([]byte("leader"), enclave.Config{})
	if err != nil {
		t.Fatal(err)
	}
	atLD, atFirstLR := int64(-1), int64(-1)
	var cols int64
	var caseNs []int64
	store := &boundaryStore{MemStore: checkpoint.NewMemStore(), onSave: func(st *checkpoint.State) {
		switch {
		case st.Stage == checkpoint.StageLD && len(st.Combinations) == 0:
			atLD, cols, caseNs = leader.MemoryUsed(), int64(len(IntersectSorted(st.PerLD...))), st.CaseNs
		case len(st.Combinations) == 1:
			atFirstLR = leader.MemoryUsed()
		}
	}}
	if _, err := RunAssessment(providers, ref, DefaultConfig(), CollusionPolicy{Conservative: true}, leader, AssessmentOptions{
		ProviderNames: names,
		Checkpoints:   store,
	}); err != nil {
		t.Fatal(err)
	}
	if atLD < 0 || atFirstLR < 0 {
		t.Fatalf("saw the Phase-2 save: %v, the first Phase-3 save: %v", atLD >= 0, atFirstLR >= 0)
	}

	touched := make(map[[2]int]bool)
	for _, l := range logs {
		for pair := range l.asked {
			touched[pair] = true
		}
	}
	pairBytes := int64(len(touched)) * bytesPerPairStat * int64(len(providers)+1)
	phase3 := bitLRBytes(int64(ref.N()), cols) + 16*cols
	var rows int64
	for _, n := range caseNs {
		phase3 += bitLRBytes(n, cols)
		rows += n
	}
	phase3 += bitLRBytes(rows, cols)
	if len(touched) == 0 {
		t.Fatal("degenerate fixture: Phase 2 touched no pair")
	}
	if want := atLD - pairBytes + phase3; atFirstLR != want {
		t.Errorf("enclave holds %d B at the first Phase-3 save, want %d (%d at the Phase-2 save − %d B for %d pairs + %d B of Phase 3)",
			atFirstLR, want, atLD, pairBytes, len(touched), phase3)
	}
	if atFirstLR >= atLD {
		t.Errorf("enclave holds %d B at the first Phase-3 save, not less than the %d B at the Phase-2 save", atFirstLR, atLD)
	}
	if used := leader.MemoryUsed(); used != 0 {
		t.Errorf("enclave still holds %d B after the run", used)
	}
}

// TestResumeAtLDAsksNoPairs resumes from a StageLD snapshot — which carries
// no pair records — and requires the resumed run to ask no member for a
// single pair and to reproduce the undisturbed run: the pair records earlier
// snapshot formats carried were never read.
func TestResumeAtLDAsksNoPairs(t *testing.T) {
	providers, ref, names := conservativeG5(t)
	policy := CollusionPolicy{Conservative: true}
	cfg := DefaultConfig()
	baseline, err := RunAssessment(providers, ref, cfg, policy, nil, AssessmentOptions{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	snap := newSnapshotStore(t, checkpoint.NewMemStore(), 2) // the MAF and LD saves
	if _, err := RunAssessment(providers, ref, cfg, policy, nil, AssessmentOptions{
		ProviderNames: names,
		Checkpoints:   snap,
	}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	seed, err := snap.inner.Load()
	if err != nil || seed.Stage != checkpoint.StageLD || len(seed.Combinations) != 0 {
		t.Fatalf("seed snapshot: %v, err %v; want StageLD with no combinations", seed, err)
	}

	logged, logs := logPairs(providers)
	report, err := RunAssessment(logged, ref, cfg, policy, nil, AssessmentOptions{
		ProviderNames: names,
		Checkpoints:   snap.inner,
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	for i, l := range logs {
		if l.requests != 0 {
			t.Errorf("member %d: %d pair request(s) on a resume past Phase 2", i, l.requests)
		}
	}
	if !report.Resumed {
		t.Error("Resumed not set")
	}
	if !report.Selection.Equal(baseline.Selection) || report.Selection.Power != baseline.Selection.Power {
		t.Errorf("resumed %v (power %v) != baseline %v (power %v)",
			report.Selection, report.Selection.Power, baseline.Selection, baseline.Selection.Power)
	}
	for c := range baseline.PerCombination {
		if !report.PerCombination[c].Equal(baseline.PerCombination[c]) {
			t.Errorf("combination %d: resumed %v != baseline %v", c, report.PerCombination[c], baseline.PerCombination[c])
		}
	}
}

// relabelVersion rewrites a stored record's format version and re-stitches
// its CRC, so only the version check can reject it.
func relabelVersion(t *testing.T, path string, version uint32) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const versionOff = 8 // after the magic
	binary.BigEndian.PutUint32(b[versionOff:], version)
	binary.BigEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[versionOff:len(b)-4]))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestVersionSkewedSnapshotStartsFresh is an upgrade of a service that
// retains snapshots (gendpr-leader -serve -resume): a namespace holds both
// generations of a snapshot written under the previous format version. The
// run must not quarantine them or report a recovery; it starts fresh,
// reproduces the plain run's selection, and leaves a snapshot of the current
// version.
func TestVersionSkewedSnapshotStartsFresh(t *testing.T) {
	shards, ref := checkpointFixture(t)
	cfg, policy := DefaultConfig(), CollusionPolicy{F: 1}
	ps, names := providersFor(shards, []int{0, 1, 2})
	baseline, err := RunAssessment(ps, ref, cfg, policy, nil, AssessmentOptions{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	dir := t.TempDir()
	root, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ns := root.Namespace("upgraded")
	opts := AssessmentOptions{ProviderNames: names, Checkpoints: ns, RetainCheckpoints: true}

	// Both generations come from a real run of this shape, so apart from
	// their version label they are resumable records.
	if _, err := RunAssessment(ps, ref, cfg, policy, nil, opts); err != nil {
		t.Fatalf("first run: %v", err)
	}
	current := ns.(*checkpoint.FileStore).Path()
	for _, p := range []string{current, current + ".prev"} {
		relabelVersion(t, p, checkpoint.Version-1)
	}

	report, err := RunAssessment(ps, ref, cfg, policy, nil, opts)
	if err != nil {
		t.Fatalf("run over the old version: %v", err)
	}
	if report.Resumed {
		t.Error("resumed from a snapshot of another format version")
	}
	if report.CorruptionRecovered {
		t.Error("version skew reported as recovered corruption")
	}
	if !report.Selection.Equal(baseline.Selection) {
		t.Errorf("fresh run %v != baseline %v", report.Selection, baseline.Selection)
	}
	if quarantined, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(quarantined) != 0 {
		t.Errorf("version-skewed snapshots quarantined: %v", quarantined)
	}
	if _, err := ns.Load(); err != nil {
		t.Errorf("retained snapshot after the run: %v", err)
	}
}

package federation

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gendpr/internal/core"
	"gendpr/internal/transport"
)

// The federation-level Byzantine suite drives semantic faults through the
// full wire stack — member-side perturbation under the AEAD channel, leader-
// side detection via plausibility checks and the digest ledger — and asserts
// the containment story end to end: the misbehaving member is quarantined
// with an attributing blame record, the survivors' selection is bit-identical
// to an honest run without the member, and an equivocator is never
// re-admitted while a crash-failed member rejoins cleanly.

// TestDigestSummaryMatchesCountsWire pins the alignment between the core
// audit digest and the federation wire encoding: core.DigestSummary must hash
// exactly the bytes a KindCountsReply carries, so the leader's ledger (raw
// payload hashes) and the runner's audit (value hashes) agree on what "the
// same answer" means.
func TestDigestSummaryMatchesCountsWire(t *testing.T) {
	counts := []int64{0, 3, 17, 120, 4}
	caseN := int64(120)
	payload, err := encodeCounts(counts, caseN)
	if err != nil {
		t.Fatal(err)
	}
	wire := sha256.Sum256(payload)
	audit, err := core.DigestSummary(counts, caseN)
	if err != nil {
		t.Fatal(err)
	}
	if wire != audit {
		t.Fatalf("DigestSummary diverged from the counts wire encoding:\n wire  %x\n audit %x", wire, audit)
	}
}

// eventLog collects RunOptions.OnEvent callbacks concurrency-safely.
type eventLog struct {
	mu     sync.Mutex
	events []MemberEvent
}

func (l *eventLog) record(e MemberEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

// of returns the event names seen for one member, in order.
func (l *eventLog) of(member string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, e := range l.events {
		if e.Member == member {
			out = append(out, e.Event)
		}
	}
	return out
}

func (l *eventLog) count(member, event string) int {
	n := 0
	for _, e := range l.of(member) {
		if e == event {
			n++
		}
	}
	return n
}

// byzantinePrep wraps the first member the runner builds with a
// core.ByzantineProvider; the leader's own shard is never wrapped, mirroring
// the threat model where the coordinator's enclave is trusted.
type byzantinePrep struct {
	mode core.ByzantineMode
	n    int

	mu      sync.Mutex
	wrapped bool
	target  int
}

func (b *byzantinePrep) prep(shardIdx int, m *Member) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.wrapped {
		return
	}
	b.wrapped = true
	b.target = shardIdx
	m.WrapProvider(func(p core.Provider) core.Provider {
		return core.NewByzantineProvider(p, b.mode, b.n)
	})
}

func (b *byzantinePrep) shard() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.target
}

// TestFederationByzantineQuarantine drives each semantic lie a member can
// still tell over the wire and demands containment. A pair reply carries
// the joint count alone, so pair-skew (a marginal that contradicts the
// member's own counts) cannot leave the member any more: it must be inert —
// nobody excluded, nobody blamed, the honest selection. Its successor on the
// wire, joint-count, is a joint count outside the bounds its marginals
// allow, quarantined in Phase 2.
func TestFederationByzantineQuarantine(t *testing.T) {
	f := newChaosFixture(t)
	cases := []struct {
		name   string
		mode   core.ByzantineMode
		policy core.CollusionPolicy
		phase  string // "" for a lie the wire cannot carry
	}{
		{"counts-overflow", core.ByzantineCountsOverflow, core.CollusionPolicy{}, core.PhaseSummary},
		{"pair-skew", core.ByzantinePairSkew, core.CollusionPolicy{}, ""},
		{"joint-count", core.ByzantineJointCount, core.CollusionPolicy{}, core.PhaseLD},
		{"pattern-flip", core.ByzantinePatternFlip, core.CollusionPolicy{F: 1}, core.PhaseLR},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prep := &byzantinePrep{mode: tc.mode, n: 1}
			log := &eventLog{}
			res, err := runGuarded(t, f, pipeChannel, tc.policy, RunOptions{
				RPCTimeout: chaosRPCTimeout,
				MaxRetries: 2,
				Backoff:    5 * time.Millisecond,
				MinQuorum:  2,
				Byzantine:  true,
				OnEvent:    log.record,
			}, chaosHooks{prep: prep.prep})
			if err != nil {
				t.Fatalf("run did not contain the byzantine member: %v", err)
			}
			bad := prep.shard()
			badName := fmt.Sprintf("gdo-%d", bad)
			if tc.phase == "" {
				if len(res.Excluded) != 0 || len(res.Report.Blamed) != 0 {
					t.Fatalf("inert lie excluded %v, blamed %+v; want nobody", res.Excluded, res.Report.Blamed)
				}
				want := f.baseline(t, -1, tc.policy)
				if !res.Report.Selection.Equal(want.Selection) {
					t.Errorf("selection %v != honest run %v", res.Report.Selection, want.Selection)
				}
				return
			}
			if len(res.Excluded) != 1 || res.Excluded[0] != bad {
				t.Fatalf("excluded %v, want exactly the byzantine shard %d", res.Excluded, bad)
			}
			if len(res.Rejoined) != 0 {
				t.Fatalf("byzantine member rejoined: %v", res.Rejoined)
			}
			blames := res.Report.Blamed
			if len(blames) == 0 {
				t.Fatal("no blame record for the byzantine member")
			}
			found := false
			for _, b := range blames {
				if b.Member == badName && b.Kind == core.BlameInvalidPayload && b.Phase == tc.phase {
					found = true
				}
			}
			if !found {
				t.Fatalf("blames %+v lack {%s, invalid-payload, %s}", blames, badName, tc.phase)
			}
			if got := log.count(badName, "byzantine"); got != 1 {
				t.Errorf("saw %d byzantine events for %s, want 1 (events: %v)", got, badName, log.of(badName))
			}
			want := f.baseline(t, bad, tc.policy)
			if !res.Report.Selection.Equal(want.Selection) {
				t.Errorf("contained selection %v != survivor baseline %v", res.Report.Selection, want.Selection)
			}
		})
	}
}

// TestFederationRetryEquivocation is the retry-equivocation story: the member
// answers its summary honestly, a transport fault forces a redial, and the
// post-reconnect ledger audit replays the summary query — which the member
// now answers differently. The leader must blame it for equivocation, exclude
// it, and refuse to re-admit it even though rejoin is enabled.
func TestFederationRetryEquivocation(t *testing.T) {
	f := newChaosFixture(t)
	prep := &byzantinePrep{mode: core.ByzantineEquivocate, n: 2}
	inj := &chaosInjector{point: transport.FaultPoint{
		Op:      transport.FaultSend,
		Kind:    transport.FaultClose,
		MsgKind: KindPairBatchRequest,
	}}
	log := &eventLog{}
	res, err := runGuarded(t, f, pipeChannel, core.CollusionPolicy{}, RunOptions{
		RPCTimeout:  chaosRPCTimeout,
		MaxRetries:  2,
		Backoff:     5 * time.Millisecond,
		MinQuorum:   2,
		Byzantine:   true,
		AllowRejoin: true,
		OnEvent:     log.record,
	}, chaosHooks{inject: inj.inject, prep: prep.prep})
	if err != nil {
		t.Fatalf("run did not contain the equivocator: %v", err)
	}
	if !inj.fired() {
		t.Fatal("transport fault never fired; no redial was forced")
	}
	bad := prep.shard()
	if inj.target != bad {
		t.Fatalf("fault hit shard %d but the equivocator is shard %d", inj.target, bad)
	}
	badName := fmt.Sprintf("gdo-%d", bad)
	if len(res.Excluded) != 1 || res.Excluded[0] != bad {
		t.Fatalf("excluded %v, want exactly the equivocating shard %d", res.Excluded, bad)
	}
	if len(res.Rejoined) != 0 {
		t.Fatalf("equivocator was re-admitted: rejoined %v", res.Rejoined)
	}
	var blame *core.Blame
	for i := range res.Report.Blamed {
		if res.Report.Blamed[i].Member == badName && res.Report.Blamed[i].Kind == core.BlameEquivocation {
			blame = &res.Report.Blamed[i]
		}
	}
	if blame == nil {
		t.Fatalf("blames %+v lack an equivocation record for %s", res.Report.Blamed, badName)
	}
	if len(blame.Prior) == 0 || len(blame.Observed) == 0 || bytes.Equal(blame.Prior, blame.Observed) {
		t.Fatalf("equivocation evidence must carry two distinct digests, got prior=%x observed=%x", blame.Prior, blame.Observed)
	}
	if got := log.count(badName, "rejoined"); got != 0 {
		t.Errorf("equivocator produced %d rejoined events (events: %v)", got, log.of(badName))
	}
	want := f.baseline(t, bad, core.CollusionPolicy{})
	if !res.Report.Selection.Equal(want.Selection) {
		t.Errorf("contained selection %v != survivor baseline %v", res.Report.Selection, want.Selection)
	}
}

// TestFederationRejoinAfterCrash excludes a member via an injected crash
// (retries disabled) and demands the full rejoin story: the member re-attests
// at the next phase boundary, passes the summary audit, rejoins, and the
// final selection is bit-identical to the undisturbed full-federation
// baseline with nobody left excluded.
func TestFederationRejoinAfterCrash(t *testing.T) {
	f := newChaosFixture(t)
	inj := &chaosInjector{point: transport.FaultPoint{
		Op:      transport.FaultSend,
		Kind:    transport.FaultClose,
		MsgKind: KindPairBatchRequest,
	}}
	log := &eventLog{}
	res, err := runGuarded(t, f, pipeChannel, core.CollusionPolicy{}, RunOptions{
		RPCTimeout:  chaosRPCTimeout,
		MaxRetries:  0,
		MinQuorum:   2,
		Byzantine:   true,
		AllowRejoin: true,
		OnEvent:     log.record,
	}, chaosHooks{inject: inj.inject})
	if err != nil {
		t.Fatalf("run did not recover through rejoin: %v", err)
	}
	if !inj.fired() {
		t.Fatal("fault never fired; nobody crashed")
	}
	name := fmt.Sprintf("gdo-%d", inj.target)
	if len(res.Excluded) != 0 {
		t.Fatalf("rejoined member still excluded: %v", res.Excluded)
	}
	if len(res.Rejoined) != 1 || res.Rejoined[0] != inj.target {
		t.Fatalf("rejoined %v, want exactly the crashed shard %d", res.Rejoined, inj.target)
	}
	events := log.of(name)
	excludedAt, rejoinedAt := -1, -1
	for i, e := range events {
		if e == "excluded" && excludedAt < 0 {
			excludedAt = i
		}
		if e == "rejoined" && rejoinedAt < 0 {
			rejoinedAt = i
		}
	}
	if excludedAt < 0 || rejoinedAt < 0 || rejoinedAt < excludedAt {
		t.Errorf("events for %s = %v, want excluded before rejoined", name, events)
	}
	want := f.baseline(t, -1, core.CollusionPolicy{})
	if !res.Report.Selection.Equal(want.Selection) {
		t.Errorf("rejoined selection %v != full baseline %v", res.Report.Selection, want.Selection)
	}
}

// TestFederationTamperExcludesWithoutRetry corrupts one reply ciphertext in
// flight. The AEAD layer must reject the frame with an authentication error,
// and the leader must treat that as tampering: no retry (despite an unused
// retry budget), the member is declared failed and excluded, and the run
// degrades to the survivor baseline.
func TestFederationTamperExcludesWithoutRetry(t *testing.T) {
	f := newChaosFixture(t)
	inj := &chaosInjector{point: transport.FaultPoint{
		Op:      transport.FaultRecv,
		Kind:    transport.FaultCorrupt,
		MsgKind: KindPairBatchReply,
	}}
	log := &eventLog{}
	res, err := runGuarded(t, f, pipeChannel, core.CollusionPolicy{}, RunOptions{
		RPCTimeout: chaosRPCTimeout,
		MaxRetries: 3,
		Backoff:    5 * time.Millisecond,
		MinQuorum:  2,
		OnEvent:    log.record,
	}, chaosHooks{inject: inj.inject})
	if err != nil {
		t.Fatalf("run did not degrade after tampering: %v", err)
	}
	if !inj.fired() {
		t.Fatal("corruption fault never fired")
	}
	name := fmt.Sprintf("gdo-%d", inj.target)
	if len(res.Excluded) != 1 || res.Excluded[0] != inj.target {
		t.Fatalf("excluded %v, want exactly the tampered shard %d", res.Excluded, inj.target)
	}
	if got := log.count(name, "retrying"); got != 0 {
		t.Errorf("tampered channel was retried %d times; tampering must not consume the retry budget (events: %v)", got, log.of(name))
	}
	want := f.baseline(t, inj.target, core.CollusionPolicy{})
	if !res.Report.Selection.Equal(want.Selection) {
		t.Errorf("degraded selection %v != survivor baseline %v", res.Report.Selection, want.Selection)
	}
}

// TestRejoinBarredWithoutRedial documents the rejoin preconditions: a member
// whose link has no redial path cannot rejoin, and the error says so rather
// than pretending the member is healthy.
func TestRejoinBarredWithoutRedial(t *testing.T) {
	r := &remoteProvider{name: "gdo-x"}
	if err := r.Rejoin(); err == nil {
		t.Fatal("Rejoin succeeded without a redial path")
	}
	r.health = HealthByzantine
	err := r.Rejoin()
	if err == nil {
		t.Fatal("quarantined member rejoined")
	}
	if !errors.Is(err, core.ErrEquivocation) {
		t.Fatalf("quarantined rejoin error %v does not wrap ErrEquivocation", err)
	}
}

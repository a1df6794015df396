package federation

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gendpr/internal/checkpoint"
	"gendpr/internal/core"
	"gendpr/internal/enclave"
	"gendpr/internal/enclave/attest"
	"gendpr/internal/transport"
)

// A cold run is three dependent exchanges per member: the handshake, whose
// offer names the summary request the member answers straight after its own
// offer; one pair batch; one pattern request. The result ends the session.
// Every exchange goes to every member at once.

// barrierRound names the exchange a leader-side message belongs to: the
// handshake (the leader's offer, the member's offer and the summary reply
// that follows it), the pair batch or the pattern request. Other kinds are
// one-way.
func barrierRound(kind uint16) string {
	switch kind {
	case KindAttestOffer, KindCountsRequest, KindCountsReply:
		return "handshake"
	case KindPairBatchRequest, KindPairBatchReply:
		return "pairs"
	case KindLRRequest, KindLRReply:
		return "lr"
	}
	return ""
}

// barrier holds back every member reply on every link until all links have
// sent that exchange's request as often as the receiving link has: a leader
// that waits for one member before asking the next never sees a reply.
type barrier struct {
	links   int
	timeout time.Duration

	mu      sync.Mutex
	changed chan struct{} // closed and replaced whenever sent grows
	sent    map[string][]int
}

func newBarrier(links int, timeout time.Duration) *barrier {
	return &barrier{links: links, timeout: timeout, changed: make(chan struct{}), sent: map[string][]int{}}
}

func (b *barrier) wrap(link int, conn transport.Conn) transport.Conn {
	return barrierConn{Conn: conn, b: b, link: link}
}

// arrive records that link sent one more request of round.
func (b *barrier) arrive(link int, round string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sent[round] == nil {
		b.sent[round] = make([]int, b.links)
	}
	b.sent[round][link]++
	close(b.changed)
	b.changed = make(chan struct{})
}

// wait blocks until every link has sent as many requests of round as link.
func (b *barrier) wait(link int, round string) error {
	deadline := time.After(b.timeout)
	for {
		b.mu.Lock()
		sent, changed := b.sent[round], b.changed
		open := 0
		for _, n := range sent {
			if sent[link] > 0 && n >= sent[link] {
				open++
			}
		}
		b.mu.Unlock()
		if open == b.links {
			return nil
		}
		select {
		case <-changed:
		case <-deadline:
			return fmt.Errorf("barrier: link %d's %s reply held %v: %d of %d links sent that request", link, round, b.timeout, open, b.links)
		}
	}
}

// barrierConn is one leader-side link under the barrier.
type barrierConn struct {
	transport.Conn
	b    *barrier
	link int
}

func (c barrierConn) Send(m transport.Message) error {
	if err := c.Conn.Send(m); err != nil {
		return err
	}
	if round := barrierRound(m.Kind); round != "" {
		c.b.arrive(c.link, round)
	}
	return nil
}

func (c barrierConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	if round := barrierRound(m.Kind); round != "" {
		if err := c.b.wait(c.link, round); err != nil {
			return transport.Message{}, err
		}
	}
	return m, nil
}

// TestMemberExchangesRunConcurrently runs G=5 under a barrier that delivers
// no member reply, attestation offers included, until all four remote links
// have that exchange's offer or request out. A leader that attested, asked
// or fetched from members one at a time — or let its CPU pool serialize the
// fan-out — would wait on the barrier forever; this one completes at one and
// at two leader workers.
func TestMemberExchangesRunConcurrently(t *testing.T) {
	cohort := testCohort(t, 300, 200, 11)
	shards, err := cohort.Partition(5)
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
	cfg := core.DefaultConfig()
	want, err := core.RunDistributed(shards, cohort.Reference, cfg, core.CollusionPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		b := newBarrier(len(shards)-1, 5*time.Second)
		// Shard i > 0 is link i−1: the leader holds shard 0.
		inject := func(shard int, conn transport.Conn) transport.Conn { return b.wrap(shard-1, conn) }
		prev := runtime.GOMAXPROCS(procs)
		res, err := runWithLeader(context.Background(), leader, authority, 0, shards, cohort.Reference, cfg, core.CollusionPolicy{}, RunOptions{}, pipeChannel, chaosHooks{inject: inject})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if !res.Report.Selection.Equal(want.Selection) {
			t.Errorf("GOMAXPROCS %d: federated %v != in-memory %v", procs, res.Report.Selection, want.Selection)
		}
		for _, round := range []string{"handshake", "pairs", "lr"} {
			if len(b.sent[round]) != len(shards)-1 {
				t.Fatalf("GOMAXPROCS %d: no %s exchange crossed the barrier", procs, round)
			}
			for link, n := range b.sent[round] {
				if n != 1 {
					t.Errorf("GOMAXPROCS %d: link %d sent %d %s requests, want 1", procs, link, n, round)
				}
			}
		}
	}
}

// flipRequest rewrites the request kind the leader's offer names, below the
// attestation layer, as an on-path adversary would.
type flipRequest struct {
	transport.Conn
	to uint16
}

func (c flipRequest) Send(m transport.Message) error {
	if m.Kind == KindAttestOffer {
		o, err := decodeOffer(m.Payload, true)
		if err != nil {
			return err
		}
		o.Request = c.to
		m.Payload = encodeOffer(o, true)
	}
	return c.Conn.Send(m)
}

// offerTo runs a member session and the leader's side of the handshake, its
// offer naming request and passed through wrap, and returns the leader's
// attestation error, the member's serving error and every message kind the
// leader's end saw in either direction.
func offerTo(t *testing.T, request uint16, wrap func(transport.Conn) transport.Conn) (error, error, map[uint16]int) {
	t.Helper()
	cohort := testCohort(t, 30, 40, 3)
	authority, err := attest.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	platform, _ := enclave.NewPlatform()
	member, err := NewMember("m", cohort.Case, platform, authority)
	if err != nil {
		t.Fatal(err)
	}
	leaderPlatform, _ := enclave.NewPlatform()
	leaderEnc, err := leaderPlatform.Load(CodeIdentity, enclave.Config{})
	if err != nil {
		t.Fatal(err)
	}
	leaderEnd, memberEnd := transport.Pipe()
	served := make(chan error, 1)
	go func() { served <- member.ServeContext(context.Background(), memberEnd, ServeOptions{}) }()
	kinds := map[uint16]int{}
	var raw transport.Conn = kindCounter{Conn: leaderEnd, mu: new(sync.Mutex), kinds: kinds}
	if wrap != nil {
		raw = wrap(raw)
	}
	secure, leaderErr := attestLeader(context.Background(), raw, authority, leaderEnc, request, time.Second)
	if leaderErr == nil && request != 0 {
		// The member's answer to the named request follows its offer.
		if _, err := transport.RecvContext(context.Background(), secure, time.Second); err != nil {
			t.Errorf("reply to request %d: %v", request, err)
		}
	}
	leaderEnd.Close()
	return leaderErr, <-served, kinds
}

// TestFlippedOfferRequestFailsAttestation: the request kind is bound into the
// quote's report data, so an offer whose kind was changed in flight — named
// where the leader named none, or cleared where it named the summary — fails
// attestation at the member, which then sends nothing at all.
func TestFlippedOfferRequestFailsAttestation(t *testing.T) {
	for _, flip := range [][2]uint16{{KindCountsRequest, 0}, {0, KindCountsRequest}, {KindCountsRequest, KindLRRequest}} {
		leaderErr, memberErr, kinds := offerTo(t, flip[0], func(c transport.Conn) transport.Conn {
			return flipRequest{Conn: c, to: flip[1]}
		})
		if !errors.Is(memberErr, attest.ErrReportDataMismatch) {
			t.Errorf("%d → %d: member error %v, want a report-data mismatch", flip[0], flip[1], memberErr)
		}
		if leaderErr == nil {
			t.Errorf("%d → %d: leader attested a member that refused it", flip[0], flip[1])
		}
		if kinds[KindAttestOffer] != 1 || len(kinds) != 1 {
			t.Errorf("%d → %d: leader end saw %v, want its own offer alone", flip[0], flip[1], kinds)
		}
	}
}

// TestMemberRefusesOfferNamingOtherRequests: only the payload-free summary
// request may ride the handshake. A genuinely attested offer naming a request
// that carries a payload, or a kind the protocol lacks, is refused, and the
// member sends nothing.
func TestMemberRefusesOfferNamingOtherRequests(t *testing.T) {
	for _, request := range []uint16{KindPairBatchRequest, KindLRRequest, KindCountsReply, KindResult, 0xBEEF} {
		leaderErr, memberErr, kinds := offerTo(t, request, nil)
		if !errors.Is(memberErr, ErrProtocol) {
			t.Errorf("request %d: member error %v, want a protocol violation", request, memberErr)
		}
		if leaderErr == nil {
			t.Errorf("request %d: leader attested a member that refused it", request)
		}
		if kinds[KindAttestOffer] != 1 || len(kinds) != 1 {
			t.Errorf("request %d: leader end saw %v, want its own offer alone", request, kinds)
		}
	}
	// The summary request itself rides: the member's offer, then its reply.
	leaderErr, memberErr, kinds := offerTo(t, KindCountsRequest, nil)
	if leaderErr != nil {
		t.Fatalf("summary request offer: %v", leaderErr)
	}
	if memberErr == nil {
		t.Error("member finished a session nobody ended")
	}
	if kinds[KindAttestOffer] != 2 || kinds[KindCountsReply] != 1 || len(kinds) != 2 {
		t.Errorf("summary request offer: leader end saw %v, want two offers and the summary reply", kinds)
	}
}

// TestReplayIsThreeMessagesPerMember: a run resumed from a checkpoint that
// seeds every phase asks members nothing, so each member's handshake rides
// the result broadcast — two offers and the result, and no summary reply.
func TestReplayIsThreeMessagesPerMember(t *testing.T) {
	cohort := testCohort(t, 150, 120, 5)
	shards, err := cohort.Partition(4)
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
	cfg, policy := core.DefaultConfig(), core.CollusionPolicy{F: 1}
	opts := RunOptions{Checkpoints: checkpoint.NewMemStore(), RetainCheckpoints: true}
	cold, err := runWithLeader(context.Background(), leader, authority, 0, shards, cohort.Reference, cfg, policy, opts, pipeChannel, chaosHooks{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	kinds := map[uint16]int{}
	count := func(_ int, conn transport.Conn) transport.Conn {
		return kindCounter{Conn: conn, mu: &mu, kinds: kinds}
	}
	replay, err := runWithLeader(context.Background(), leader, authority, 0, shards, cohort.Reference, cfg, policy, opts, pipeChannel, chaosHooks{inject: count})
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Report.Resumed || !replay.Report.Selection.Equal(cold.Report.Selection) {
		t.Fatalf("replay resumed %v, selection %v; want a resumed %v", replay.Report.Resumed, replay.Report.Selection, cold.Report.Selection)
	}
	remote := len(shards) - 1
	for kind, want := range map[uint16]int{KindAttestOffer: 2 * remote, KindResult: remote, KindCountsReply: 0} {
		if kinds[kind] != want {
			t.Errorf("replay: kind %d: %d message(s), want %d", kind, kinds[kind], want)
		}
	}
	if want := int64(3 * remote); replay.Traffic.TotalMessages != want {
		t.Errorf("replay: %d messages, want %d", replay.Traffic.TotalMessages, want)
	}
	for i, sel := range replay.MemberSelections {
		if i != 0 && (sel == nil || !sel.Equal(cold.Report.Selection)) {
			t.Errorf("member %d received %v, want %v", i, sel, cold.Report.Selection)
		}
	}
}

// TestRedialAuditRidesHandshake: after a transport fault in Phase 2, the
// redialed channel's offer names the summary request, and the member's
// answer — the equivocation audit of the fresh channel — comes unasked: no
// summary request crosses the wire, and the one extra summary reply is the
// audit's.
func TestRedialAuditRidesHandshake(t *testing.T) {
	f := newChaosFixture(t)
	inj := &chaosInjector{point: transport.FaultPoint{Op: transport.FaultSend, Kind: transport.FaultClose, MsgKind: KindPairBatchRequest}}
	var mu sync.Mutex
	kinds := map[uint16]int{}
	inject := func(shard int, conn transport.Conn) transport.Conn {
		return inj.inject(shard, kindCounter{Conn: conn, mu: &mu, kinds: kinds})
	}
	res, err := runGuarded(t, f, pipeChannel, core.CollusionPolicy{}, RunOptions{
		RPCTimeout: chaosRPCTimeout,
		MaxRetries: 2,
		Backoff:    5 * time.Millisecond,
	}, chaosHooks{inject: inject})
	if err != nil {
		t.Fatalf("run did not recover: %v", err)
	}
	if !inj.fired() {
		t.Fatal("fault never fired")
	}
	if want := f.baseline(t, -1, core.CollusionPolicy{}); !res.Report.Selection.Equal(want.Selection) {
		t.Errorf("selection %v != baseline %v", res.Report.Selection, want.Selection)
	}
	remote := len(f.shards) - 1
	for kind, want := range map[uint16]int{KindCountsRequest: 0, KindCountsReply: remote + 1, KindAttestOffer: 2 * (remote + 1)} {
		if kinds[kind] != want {
			t.Errorf("kind %d: %d message(s), want %d", kind, kinds[kind], want)
		}
	}
}

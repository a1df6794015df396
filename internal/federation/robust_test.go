package federation

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gendpr/internal/core"
	"gendpr/internal/enclave"
	"gendpr/internal/enclave/attest"
	"gendpr/internal/genome"
	"gendpr/internal/transport"
)

// tcpMember starts one member on an ephemeral TCP port with a resilient
// accept loop (serves until a session ends with the leader's result or the
// listener closes) and returns its listener address plus a cleanup func that
// waits for the loop.
func tcpMember(t *testing.T, id string, shard *genome.Matrix, authority *attest.Authority) (string, func()) {
	t.Helper()
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	member, err := NewMember(id, shard, platform, authority)
	if err != nil {
		t.Fatalf("NewMember: %v", err)
	}
	listener, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := listener.Accept()
			if err != nil {
				return
			}
			err = member.ServeContext(context.Background(), conn, ServeOptions{})
			_ = conn.Close()
			if err == nil {
				return
			}
		}
	}()
	return listener.Addr(), func() {
		_ = listener.Close()
		wg.Wait()
	}
}

// tcpLeaderFixture builds a leader plus two TCP members and returns the
// pieces a test needs to drive RunLinksContext directly.
func tcpLeaderFixture(t *testing.T) (*Leader, *genome.Cohort, []*genome.Matrix, []MemberLink) {
	t.Helper()
	cohort := testCohort(t, 60, 120, 41)
	shards, err := cohort.Partition(3)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	authority, err := attest.NewAuthority()
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	leader, err := NewLeader("gdo-0", shards[0], platform, authority)
	if err != nil {
		t.Fatalf("NewLeader: %v", err)
	}
	links := make([]MemberLink, 0, 2)
	for i := 1; i < 3; i++ {
		addr, cleanup := tcpMember(t, fmt.Sprintf("gdo-%d", i), shards[i], authority)
		t.Cleanup(cleanup)
		conn, err := transport.DialTimeout(addr, transport.DefaultDialTimeout)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		links = append(links, MemberLink{Conn: conn, Name: fmt.Sprintf("gdo-%d", i), Redial: func() (transport.Conn, error) {
			return transport.DialTimeout(addr, transport.DefaultDialTimeout)
		}})
	}
	return leader, cohort, shards, links
}

// TestLeaderNamesMemberAndPhaseOnTCPDrop drops one member's connection in
// the middle of Phase 2 and Phase 3 over real TCP and asserts the leader's
// error names both the failing member and the protocol phase — the
// pre-quorum baseline the degradation machinery builds on.
func TestLeaderNamesMemberAndPhaseOnTCPDrop(t *testing.T) {
	cases := []struct {
		name      string
		kind      uint16
		wantPhase string
	}{
		{"phase2-pair-batch", KindPairBatchRequest, core.PhaseLD},
		{"phase3-lr-request", KindLRRequest, core.PhaseLR},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leader, cohort, _, links := tcpLeaderFixture(t)
			// Drop member gdo-2's connection at the first message of the
			// targeted phase; no redial and no quorum, so the run must fail.
			links[1].Redial = nil
			links[1].Conn = transport.NewFault(links[1].Conn, transport.FaultPoint{
				Op:      transport.FaultSend,
				Kind:    transport.FaultClose,
				MsgKind: tc.kind,
			})
			_, err := leader.RunLinksContext(context.Background(), links, cohort.Reference, core.DefaultConfig(), core.CollusionPolicy{}, RunOptions{RPCTimeout: 2 * time.Second})
			if err == nil {
				t.Fatal("leader completed despite the dropped member")
			}
			if !strings.Contains(err.Error(), "gdo-2") {
				t.Errorf("error %q does not name member gdo-2", err)
			}
			if !strings.Contains(err.Error(), tc.wantPhase) {
				t.Errorf("error %q does not name phase %q", err, tc.wantPhase)
			}
			if !errors.Is(err, core.ErrMemberFailed) {
				t.Errorf("error %v is not marked as a member failure", err)
			}
		})
	}
}

// TestHungMemberCompletesWithinRPCTimeout is the acceptance check for the
// deadline plumbing: a member that attests and then goes silent used to
// deadlock the leader forever; with RPCTimeout set, the run must fail within
// the timeout budget instead.
func TestHungMemberCompletesWithinRPCTimeout(t *testing.T) {
	cohort := testCohort(t, 40, 60, 43)
	authority, err := attest.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	platformL, _ := enclave.NewPlatform()
	leader, err := NewLeader("leader", cohort.Case, platformL, authority)
	if err != nil {
		t.Fatal(err)
	}

	leaderEnd, memberEnd := transport.Pipe()
	defer leaderEnd.Close()
	// A member that completes attestation, then never answers anything.
	go func() {
		platformM, _ := enclave.NewPlatform()
		enc, err := platformM.Load(CodeIdentity, enclave.Config{})
		if err != nil {
			t.Errorf("load: %v", err)
			return
		}
		conn, _, err := attestMember(context.Background(), memberEnd, authority, enc, 0)
		if err != nil {
			t.Errorf("attest: %v", err)
			return
		}
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
			// Swallow every request without replying.
		}
	}()

	const rpcTimeout = 300 * time.Millisecond
	start := time.Now()
	_, err = leader.RunLinksContext(
		context.Background(),
		[]MemberLink{{Conn: leaderEnd, Name: "silent"}},
		cohort.Reference, core.DefaultConfig(), core.CollusionPolicy{},
		RunOptions{RPCTimeout: rpcTimeout},
	)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("leader completed despite the silent member")
	}
	if !transport.IsTimeout(err) && !errors.Is(err, core.ErrMemberFailed) {
		t.Errorf("error %v is neither a timeout nor a member failure", err)
	}
	// Budget: one timed-out exchange plus protocol overhead; far below the
	// forever of the undeadlined path.
	if elapsed > 20*rpcTimeout {
		t.Errorf("leader took %v to give up, budget ~%v", elapsed, rpcTimeout)
	}
}

// TestTCPReconnectRecoversRun kills one member connection mid-protocol and
// asserts the leader redials, re-attests, and finishes with exactly the
// selection an undisturbed run produces.
func TestTCPReconnectRecoversRun(t *testing.T) {
	leader, cohort, shards, links := tcpLeaderFixture(t)
	want, err := core.RunDistributed(shards, cohort.Reference, core.DefaultConfig(), core.CollusionPolicy{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	fault := transport.NewFault(links[0].Conn, transport.FaultPoint{
		Op:      transport.FaultSend,
		Kind:    transport.FaultClose,
		MsgKind: KindPairBatchRequest,
	})
	links[0].Conn = fault

	report, err := leader.RunLinksContext(context.Background(), links, cohort.Reference, core.DefaultConfig(), core.CollusionPolicy{}, RunOptions{
		RPCTimeout: 2 * time.Second,
		MaxRetries: 2,
		Backoff:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunLinksContext did not recover: %v", err)
	}
	if !fault.Fired() {
		t.Fatal("fault never fired; the test exercised nothing")
	}
	if len(report.Excluded) != 0 {
		t.Fatalf("recovered run excluded members: %v", report.Excluded)
	}
	if !report.Selection.Equal(want.Selection) {
		t.Errorf("recovered selection %v != baseline %v", report.Selection, want.Selection)
	}
}

// TestMemberServeIdleTimeout bounds a member's wait for a silent leader.
func TestMemberServeIdleTimeout(t *testing.T) {
	cohort := testCohort(t, 30, 40, 47)
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
	defer leaderEnd.Close()
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- member.ServeContext(context.Background(), memberEnd, ServeOptions{IdleTimeout: 100 * time.Millisecond})
	}()
	if _, err := attestLeader(context.Background(), leaderEnd, authority, leaderEnc, 0, 0); err != nil {
		t.Fatalf("attest: %v", err)
	}
	// The leader goes silent; the member must give up on its own.
	select {
	case err := <-serveDone:
		if !transport.IsTimeout(err) {
			t.Errorf("serve error = %v, want timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("member still serving after the idle timeout")
	}
}

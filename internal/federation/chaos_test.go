package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gendpr/internal/checkpoint"
	"gendpr/internal/core"
	"gendpr/internal/genome"
	"gendpr/internal/transport"
)

// The chaos harness sweeps deterministic fault points across all three
// protocol phases and asserts the two acceptable outcomes of the
// fault-tolerant runtime:
//
//   - rescue: with retries and redial enabled, the run completes with a
//     selection bit-identical to the undisturbed baseline and no exclusions;
//   - degrade: with retries disabled and a quorum configured, the run
//     completes with exactly the faulted member excluded and a selection
//     bit-identical to a run over the survivors.
//
// Never a hang (every case runs under a watchdog) and never a silent wrong
// answer (every case compares selections against an independent baseline).

const (
	chaosRPCTimeout = 500 * time.Millisecond
	chaosDelay      = 3 * chaosRPCTimeout
	chaosWatchdog   = 60 * time.Second
)

// chaosInjector wraps the first member connection spawned by the in-process
// runner with a transport.Fault; every later spawn — including redials of the
// same member — passes through untouched, so the fault fires exactly once.
type chaosInjector struct {
	point transport.FaultPoint

	mu     sync.Mutex
	target int
	fault  *transport.Fault
}

func (c *chaosInjector) inject(shardIdx int, conn transport.Conn) transport.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fault != nil {
		return conn
	}
	c.target = shardIdx
	c.fault = transport.NewFault(conn, c.point)
	return c.fault
}

func (c *chaosInjector) fired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fault != nil && c.fault.Fired()
}

// chaosFixture holds the shared cohort plus memoized baselines so the sweep
// pays for each reference assessment once.
type chaosFixture struct {
	cohort *genome.Cohort
	shards []*genome.Matrix

	mu        sync.Mutex
	baselines map[string]*core.Report
}

func newChaosFixture(t *testing.T) *chaosFixture {
	t.Helper()
	cohort := testCohort(t, 36, 48, 53)
	shards, err := cohort.Partition(3)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	return &chaosFixture{cohort: cohort, shards: shards, baselines: map[string]*core.Report{}}
}

// baseline returns the distributed reference run with shard `excluded`
// removed (-1 keeps the full federation), memoized per exclusion and policy.
func (f *chaosFixture) baseline(t *testing.T, excluded int, policy core.CollusionPolicy) *core.Report {
	t.Helper()
	key := fmt.Sprintf("%d/F%d/c%v", excluded, policy.F, policy.Conservative)
	f.mu.Lock()
	defer f.mu.Unlock()
	if r, ok := f.baselines[key]; ok {
		return r
	}
	shards := make([]*genome.Matrix, 0, len(f.shards))
	for i, s := range f.shards {
		if i != excluded {
			shards = append(shards, s)
		}
	}
	r, err := core.RunDistributed(shards, f.cohort.Reference, core.DefaultConfig(), policy)
	if err != nil {
		t.Fatalf("baseline (excluded=%d): %v", excluded, err)
	}
	f.baselines[key] = r
	return r
}

// runGuarded executes one federated run through the election loop under a
// watchdog: a hang is a test failure, never a stuck suite.
func runGuarded(t *testing.T, f *chaosFixture, channel memberChannel, policy core.CollusionPolicy, opts RunOptions, hooks chaosHooks) (*Result, error) {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		o.res, o.err = runElection(context.Background(), f.shards, f.cohort.Reference, core.DefaultConfig(), policy, opts, channel, hooks)
		done <- o
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(chaosWatchdog):
		t.Fatalf("chaos run hung past the %v watchdog", chaosWatchdog)
		return nil, nil
	}
}

// chaosPoints enumerates one fault point per phase and direction. Delay
// points carry the sleep that must trip the RPC deadline. Phase 1 sends no
// request of its own: it rides the leader's attestation offer, and the
// member's reply follows its offer. A failed first handshake is never
// retried, so a run that must rescue itself (rescue) faults Phase 1 on the
// reply, and a degrading run on the leader's offer too.
func chaosPoints(short, rescue bool) []transport.FaultPoint {
	send := func(kind uint16, fk transport.FaultKind) transport.FaultPoint {
		return transport.FaultPoint{Op: transport.FaultSend, Kind: fk, MsgKind: kind, Delay: chaosDelay}
	}
	recv := func(kind uint16, fk transport.FaultKind) transport.FaultPoint {
		return transport.FaultPoint{Op: transport.FaultRecv, Kind: fk, MsgKind: kind, Delay: chaosDelay}
	}
	// phase1 faults Phase 1's leader-side step.
	phase1 := func(fk transport.FaultKind) transport.FaultPoint {
		if rescue {
			return recv(KindCountsReply, fk)
		}
		return send(KindAttestOffer, fk)
	}
	if short {
		// The smoke subset: one teardown and one lossy point per direction,
		// touching Phase 1 and Phase 3.
		return []transport.FaultPoint{
			phase1(transport.FaultClose),
			send(KindLRRequest, transport.FaultDrop),
			recv(KindCountsReply, transport.FaultDrop),
			recv(KindLRReply, transport.FaultClose),
		}
	}
	var points []transport.FaultPoint
	for _, fk := range []transport.FaultKind{transport.FaultError, transport.FaultClose, transport.FaultDrop} {
		if !rescue {
			points = append(points, phase1(fk))
		}
		points = append(points,
			send(KindPairBatchRequest, fk),
			send(KindLRRequest, fk),
			recv(KindCountsReply, fk),
			recv(KindPairBatchReply, fk),
			recv(KindLRReply, fk),
		)
	}
	// Delay faults sleep for real, so cover one per direction instead of the
	// full matrix: a slow Phase-1 step and a late Phase 3 reply.
	points = append(points,
		phase1(transport.FaultDelay),
		recv(KindLRReply, transport.FaultDelay),
	)
	return points
}

// TestChaosRescue sweeps every fault point with retries and redial enabled:
// the run must recover — same selection as the undisturbed baseline, nobody
// excluded.
func TestChaosRescue(t *testing.T) {
	f := newChaosFixture(t)
	policies := []core.CollusionPolicy{{}}
	if !testing.Short() {
		policies = append(policies, core.CollusionPolicy{F: 1})
	}
	for _, policy := range policies {
		for _, point := range chaosPoints(testing.Short(), true) {
			name := fmt.Sprintf("F%d/%s", policy.F, point)
			t.Run(name, func(t *testing.T) {
				inj := &chaosInjector{point: point}
				res, err := runGuarded(t, f, pipeChannel, policy, RunOptions{
					RPCTimeout: chaosRPCTimeout,
					MaxRetries: 3,
					Backoff:    5 * time.Millisecond,
				}, chaosHooks{inject: inj.inject})
				if err != nil {
					t.Fatalf("run did not recover: %v", err)
				}
				if !inj.fired() {
					t.Fatal("fault never fired; the case exercised nothing")
				}
				if len(res.Excluded) != 0 {
					t.Fatalf("recovered run excluded members: %v", res.Excluded)
				}
				want := f.baseline(t, -1, policy)
				if !res.Report.Selection.Equal(want.Selection) {
					t.Errorf("selection %v != baseline %v", res.Report.Selection, want.Selection)
				}
			})
		}
	}
}

// TestChaosDegrade sweeps the same fault points with retries disabled and a
// two-provider quorum: the faulted member must be excluded, everyone else
// finishes, and the selection equals a run over the survivors.
func TestChaosDegrade(t *testing.T) {
	f := newChaosFixture(t)
	policies := []core.CollusionPolicy{{}}
	if !testing.Short() {
		policies = append(policies, core.CollusionPolicy{F: 1})
	}
	for _, policy := range policies {
		for _, point := range chaosPoints(testing.Short(), false) {
			name := fmt.Sprintf("F%d/%s", policy.F, point)
			t.Run(name, func(t *testing.T) {
				inj := &chaosInjector{point: point}
				res, err := runGuarded(t, f, pipeChannel, policy, RunOptions{
					RPCTimeout: chaosRPCTimeout,
					MaxRetries: 0,
					MinQuorum:  2,
				}, chaosHooks{inject: inj.inject})
				if err != nil {
					t.Fatalf("run did not degrade: %v", err)
				}
				if !inj.fired() {
					t.Fatal("fault never fired; the case exercised nothing")
				}
				if len(res.Excluded) != 1 || res.Excluded[0] != inj.target {
					t.Fatalf("excluded %v, want exactly the faulted shard %d", res.Excluded, inj.target)
				}
				want := f.baseline(t, inj.target, policy)
				if !res.Report.Selection.Equal(want.Selection) {
					t.Errorf("degraded selection %v != survivor baseline %v", res.Report.Selection, want.Selection)
				}
			})
		}
	}
}

// killStore kills the leader at its killAt-th checkpoint save (1 = after
// Phase 1, 2 = after Phase 2, 2+c = after the c-th Phase 3 combination) by
// canceling the leader's run context. With before set the crash lands before
// the snapshot reaches storage, so the successor finds only the previous
// boundary — or nothing at all for killAt 1.
type killStore struct {
	inner  checkpoint.Store
	cancel context.CancelFunc
	killAt int
	before bool

	mu      sync.Mutex
	ordinal int
}

func (k *killStore) Save(st *checkpoint.State) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.ordinal++
	if k.ordinal == k.killAt {
		k.cancel()
		if k.before {
			return context.Canceled
		}
	}
	return k.inner.Save(st)
}

func (k *killStore) Load() (*checkpoint.State, error) { return k.inner.Load() }
func (k *killStore) Clear() error                     { return k.inner.Clear() }

// TestChaosLeaderFailover kills the first elected leader at every checkpoint
// boundary in turn and demands the full recovery story: the survivors elect a
// new leader, the new leader resumes from the latest durable snapshot, nobody
// is excluded, and the final selection is bit-identical to the undisturbed
// baseline. One kill point also runs over loopback TCP through the same
// election loop.
func TestChaosLeaderFailover(t *testing.T) {
	f := newChaosFixture(t)
	type killCase struct {
		policy core.CollusionPolicy
		killAt int
		before bool
		// resumed is whether the successor should find a usable snapshot: a
		// crash during the very first save leaves nothing durable, so that
		// rerun is fresh rather than resumed.
		resumed bool
		// tcp runs the members behind loopback sockets instead of pipes.
		tcp bool
	}
	cases := []killCase{
		{core.CollusionPolicy{}, 1, true, false, false}, // dies mid-Phase-1 save
		{core.CollusionPolicy{}, 1, false, true, false}, // dies right after Phase 1
		{core.CollusionPolicy{}, 2, false, true, false}, // dies right after Phase 2
		{core.CollusionPolicy{}, 3, false, true, false}, // dies after the last combination
		{core.CollusionPolicy{}, 2, false, true, true},  // dies right after Phase 2, over TCP
	}
	if !testing.Short() {
		// With F=1 over 3 shards Phase 3 evaluates 4 combinations, so the
		// save ordinals run 1 (MAF), 2 (LD), 3..6 (combinations).
		cases = append(cases,
			killCase{core.CollusionPolicy{F: 1}, 2, false, true, false},
			killCase{core.CollusionPolicy{F: 1}, 4, false, true, false},
			killCase{core.CollusionPolicy{F: 1}, 6, false, true, false},
		)
	}
	for _, tc := range cases {
		name := fmt.Sprintf("F%d/save%d/before=%v", tc.policy.F, tc.killAt, tc.before)
		channel := pipeChannel
		if tc.tcp {
			name, channel = "tcp/"+name, tcpChannel
		}
		t.Run(name, func(t *testing.T) {
			var (
				mu       sync.Mutex
				killed   = -1
				attempts int
			)
			hook := func(attempt, leaderIdx int, cancel context.CancelFunc, store checkpoint.Store) checkpoint.Store {
				mu.Lock()
				defer mu.Unlock()
				attempts++
				if attempt == 0 {
					killed = leaderIdx
					return &killStore{inner: store, cancel: cancel, killAt: tc.killAt, before: tc.before}
				}
				return store
			}
			res, err := runGuarded(t, f, channel, tc.policy, RunOptions{
				RPCTimeout:  chaosRPCTimeout,
				MaxRetries:  1,
				Backoff:     5 * time.Millisecond,
				Checkpoints: checkpoint.NewMemStore(),
			}, chaosHooks{failover: hook})
			if err != nil {
				t.Fatalf("failover run failed: %v", err)
			}
			mu.Lock()
			gotKilled, gotAttempts := killed, attempts
			mu.Unlock()
			if gotAttempts != 2 {
				t.Fatalf("ran %d attempts, want exactly 2 (kill + resume)", gotAttempts)
			}
			if len(res.FormerLeaders) != 1 || res.FormerLeaders[0] != gotKilled {
				t.Fatalf("FormerLeaders = %v, want [%d]", res.FormerLeaders, gotKilled)
			}
			if res.LeaderIndex == gotKilled {
				t.Fatalf("dead leader %d was re-elected", gotKilled)
			}
			if res.Report.Resumed != tc.resumed {
				t.Errorf("Resumed = %v, want %v", res.Report.Resumed, tc.resumed)
			}
			if len(res.Excluded) != 0 {
				t.Fatalf("failover excluded members: %v", res.Excluded)
			}
			want := f.baseline(t, -1, tc.policy)
			if !res.Report.Selection.Equal(want.Selection) {
				t.Errorf("failover selection %v != baseline %v", res.Report.Selection, want.Selection)
			}
			if res.Report.Selection.Power != want.Selection.Power {
				t.Errorf("failover power %v != baseline %v", res.Report.Selection.Power, want.Selection.Power)
			}
		})
	}
}

// TestChaosQuorumLoss drops the quorum floor out from under a faulted run:
// with MinQuorum equal to the full federation, any member failure must abort
// with ErrQuorumLost rather than degrade or hang.
func TestChaosQuorumLoss(t *testing.T) {
	f := newChaosFixture(t)
	inj := &chaosInjector{point: transport.FaultPoint{
		Op:      transport.FaultSend,
		Kind:    transport.FaultClose,
		MsgKind: KindPairBatchRequest,
	}}
	_, err := runGuarded(t, f, pipeChannel, core.CollusionPolicy{}, RunOptions{
		RPCTimeout: chaosRPCTimeout,
		MaxRetries: 0,
		MinQuorum:  3,
	}, chaosHooks{inject: inj.inject})
	if err == nil {
		t.Fatal("run completed despite quorum loss")
	}
	if !errors.Is(err, core.ErrQuorumLost) {
		t.Fatalf("error %v does not wrap ErrQuorumLost", err)
	}
}

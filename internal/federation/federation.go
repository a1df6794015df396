package federation

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"gendpr/internal/checkpoint"
	"gendpr/internal/core"
	"gendpr/internal/enclave"
	"gendpr/internal/enclave/attest"
	"gendpr/internal/genome"
	"gendpr/internal/transport"
	"gendpr/internal/vcf"
)

// Result bundles the leader's report with which member was elected leader.
type Result struct {
	Report      *core.Report
	LeaderIndex int
	// MemberSelections holds the selection each member received via the
	// final broadcast, indexed by shard position (nil for the leader's own
	// slot, which holds the report directly).
	MemberSelections []*core.Selection
	// Traffic reports what actually crossed the attested channels.
	Traffic TrafficStats
	// Excluded lists the shard positions of members that failed and were
	// excluded under quorum degradation (empty unless RunOptions.MinQuorum
	// allowed the run to degrade).
	Excluded []int
	// Rejoined lists the shard positions of members that were excluded
	// mid-run and re-admitted at a later phase boundary under
	// RunOptions.AllowRejoin. A rejoined member never appears in Excluded.
	Rejoined []int
	// FormerLeaders lists, oldest first, the shard positions of leaders that
	// died mid-run and were replaced by re-election before this result was
	// produced. Empty unless the election loop had to re-elect.
	FormerLeaders []int
}

// TrafficStats quantifies the paper's Section 7.1 bandwidth claim: members
// exchange encrypted intermediates instead of genome files.
type TrafficStats struct {
	// PerMemberBytes is the wire traffic (both directions, ciphertext) on
	// each member's channel, indexed by shard position; the leader's own
	// slot is zero.
	PerMemberBytes []int64
	// TotalBytes sums all channels.
	TotalBytes int64
	// TotalMessages counts protocol messages in both directions.
	TotalMessages int64
	// GenomeShipBytes is what centralizing would have cost instead: the
	// exact VCF-encoded size of every non-leader genotype shard (the paper
	// compares against shipping variant files).
	GenomeShipBytes int64
	// GenomePackedBytes is the bit-packed lower bound for the same shards
	// (2 bits per diploid genotype in the paper's accounting; 1 bit in this
	// library's haploid encoding).
	GenomePackedBytes int64
}

// SavingsFactor returns how many times cheaper the protocol traffic is than
// shipping the genomes (0 when nothing was exchanged).
func (t TrafficStats) SavingsFactor() float64 {
	if t.TotalBytes == 0 {
		return 0
	}
	return float64(t.GenomeShipBytes) / float64(t.TotalBytes)
}

// ErrNoElectableLeader is returned when every candidate leader has died and
// nobody is left to coordinate the assessment.
var ErrNoElectableLeader = errors.New("federation: every candidate leader has failed")

// elect runs the Section 5.2 committed-nonce election among the candidate
// shard positions.
func elect(candidates []int) (int, error) {
	if len(candidates) == 0 {
		return 0, ErrNoElectableLeader
	}
	// One leader-election contribution per candidate.
	nonces := make([][]byte, len(candidates))
	for i := range nonces {
		nonces[i] = make([]byte, 16)
		if _, err := io.ReadFull(rand.Reader, nonces[i]); err != nil {
			return 0, fmt.Errorf("federation: election nonce: %w", err)
		}
	}
	idx, err := ElectLeader(nonces, len(candidates))
	if err != nil {
		return 0, err
	}
	return candidates[idx], nil
}

// assembleResult maps the leader's report back to shard positions.
func assembleResult(report *core.Report, leaderIdx int, g int, members []*Member, memberShards []int, meters []*transport.Meter, shards []*genome.Matrix) *Result {
	res := &Result{
		Report:           report,
		LeaderIndex:      leaderIdx,
		MemberSelections: make([]*core.Selection, g),
		Traffic:          trafficStats(meters, shards, leaderIdx),
	}
	for j, shardIdx := range memberShards {
		res.MemberSelections[shardIdx] = members[j].LastResult()
	}
	// Report.Excluded uses provider indices (0 = leader's shard); translate
	// to shard positions for the federation-level view.
	for _, e := range report.Excluded {
		if e >= 1 && e <= len(memberShards) {
			res.Excluded = append(res.Excluded, memberShards[e-1])
		}
	}
	for _, e := range report.Rejoined {
		if e >= 1 && e <= len(memberShards) {
			res.Rejoined = append(res.Rejoined, memberShards[e-1])
		}
	}
	return res
}

// RunInProcess assembles a complete federation inside one process: one
// platform and enclave per shard, random leader election, attested in-memory
// channels, and a full protocol run. It is the reference deployment used by
// tests, examples and benchmarks; RunOverTCP exercises the same nodes across
// real sockets.
//
// opts sets the fault-tolerance envelope (RunOptions.faultTolerant): a
// tolerant run re-establishes dropped member channels (a fresh pipe and
// serving goroutine, re-attested) and takes the leader's report, including
// its excluded-member list, as authoritative over member serving errors.
// Cancelling ctx aborts the run at the next phase boundary.
func RunInProcess(ctx context.Context, shards []*genome.Matrix, reference *genome.Matrix, cfg core.Config, policy core.CollusionPolicy, opts RunOptions) (*Result, error) {
	return runElection(ctx, shards, reference, cfg, policy, opts, pipeChannel, chaosHooks{})
}

// RunOverTCP runs the same federation across loopback TCP sockets: each
// member listens on an ephemeral port and keeps accepting connections until
// a session ends with the leader's result or its listener closes, so a
// tolerant leader's redial after a connection drop reaches a live serving
// loop.
func RunOverTCP(ctx context.Context, shards []*genome.Matrix, reference *genome.Matrix, cfg core.Config, policy core.CollusionPolicy, opts RunOptions) (*Result, error) {
	return runElection(ctx, shards, reference, cfg, policy, opts, tcpChannel, chaosHooks{})
}

// chaosHooks are the chaos harness's handles on a run; production runs pass
// the zero value.
type chaosHooks struct {
	// inject wraps the leader end of each member channel, below attestation
	// and encryption, so injected faults exercise the full recovery path
	// including re-attestation.
	inject func(shardIdx int, conn transport.Conn) transport.Conn
	// prep adjusts a freshly built member node before it starts serving,
	// e.g. to install a Byzantine provider wrapper via Member.WrapProvider.
	prep func(shardIdx int, m *Member)
	// failover schedules a leader death for one attempt of the election
	// loop: it may wrap the attempt's checkpoint store, and it receives the
	// cancel function that stands in for the leader process dying.
	failover func(attempt, leaderIdx int, cancel context.CancelFunc, store checkpoint.Store) checkpoint.Store
}

// sessions tracks the member serving goroutines of one run and the errors
// they end with.
type sessions struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
}

// spawn runs serve on a new goroutine the run waits for.
func (s *sessions) spawn(serve func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		serve()
	}()
}

// fail records a serving error.
func (s *sessions) fail(err error) {
	s.mu.Lock()
	s.errs = append(s.errs, err)
	s.mu.Unlock()
}

// memberChannel connects the leader to one member node. It returns dial,
// which hands out a fresh raw connection served by the member — the initial
// link and every redial go through it — and stop, which releases what the
// channel holds once the run's connections are closed.
type memberChannel func(m *Member, s *sessions, opts RunOptions) (dial func() (transport.Conn, error), stop func(), err error)

// pipeChannel serves every connection on its own in-memory pipe and serving
// goroutine, so a redialing leader talks to a live serving loop with fresh
// AEAD state.
func pipeChannel(m *Member, s *sessions, _ RunOptions) (func() (transport.Conn, error), func(), error) {
	dial := func() (transport.Conn, error) {
		leaderEnd, memberEnd := transport.Pipe()
		s.spawn(func() {
			if err := m.ServeContext(context.Background(), memberEnd, ServeOptions{}); err != nil {
				s.fail(err)
			}
		})
		return leaderEnd, nil
	}
	return dial, func() {}, nil
}

// tcpChannel listens on a loopback port and serves one session at a time
// until a session ends with the leader's result or the listener closes.
func tcpChannel(m *Member, s *sessions, opts RunOptions) (func() (transport.Conn, error), func(), error) {
	listener, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	s.spawn(func() {
		for {
			conn, err := listener.Accept()
			if err != nil {
				return
			}
			err = m.ServeContext(context.Background(), conn, ServeOptions{})
			_ = conn.Close()
			if err == nil {
				return
			}
			s.fail(err)
		}
	})
	addr := listener.Addr()
	dial := func() (transport.Conn, error) { return transport.DialTimeout(addr, opts.dialTimeout()) }
	return dial, func() { _ = listener.Close() }, nil
}

// runElection is the one federation driver: it runs the Section 5.2
// election over the live candidates and drives the protocol under the winner
// through runWithLeader. A leader dies when its attempt's context — not the
// caller's — is canceled, which only hooks.failover does; the dead leader is
// struck from the electable set (its node still serves its shard as an
// ordinary member) and the survivors elect a successor, which resumes from
// opts.Checkpoints. Without that hook a run makes exactly one attempt.
func runElection(ctx context.Context, shards []*genome.Matrix, reference *genome.Matrix, cfg core.Config, policy core.CollusionPolicy, opts RunOptions, channel memberChannel, hooks chaosHooks) (*Result, error) {
	if len(shards) == 0 {
		return nil, core.ErrNoMembers
	}
	if ctx == nil {
		ctx = context.Background()
	}
	authority, err := attest.NewAuthority()
	if err != nil {
		return nil, fmt.Errorf("federation: %w", err)
	}
	// The shard identities, and with them the checkpoint fingerprint, stay
	// fixed across attempts; only who coordinates changes.
	electable := make([]int, len(shards))
	for i := range electable {
		electable[i] = i
	}
	var former []int
	for {
		leaderIdx, err := elect(electable)
		if err != nil {
			return nil, err
		}
		platform, err := enclave.NewPlatform()
		if err != nil {
			return nil, fmt.Errorf("federation: %w", err)
		}
		leader, err := NewLeader(fmt.Sprintf("gdo-%d", leaderIdx), shards[leaderIdx], platform, authority)
		if err != nil {
			return nil, err
		}
		runCtx, cancel := ctx, context.CancelFunc(func() {})
		attemptOpts := opts
		if hooks.failover != nil {
			runCtx, cancel = context.WithCancel(ctx)
			attemptOpts.Checkpoints = hooks.failover(len(former), leaderIdx, cancel, opts.Checkpoints)
		}
		res, err := runWithLeader(runCtx, leader, authority, leaderIdx, shards, reference, cfg, policy, attemptOpts, channel, hooks)
		died := runCtx.Err() != nil && ctx.Err() == nil
		cancel()
		if err == nil {
			res.FormerLeaders = former
			return res, nil
		}
		if !died {
			return nil, err
		}
		former = append(former, leaderIdx)
		electable = slices.DeleteFunc(electable, func(i int) bool { return i == leaderIdx })
	}
}

// runWithLeader is the driver behind every federation runner: under an
// already-elected leader it builds the member nodes, connects them through
// channel, runs the protocol, and maps the report back to shard positions.
// The election loop calls it once per elected leader.
func runWithLeader(ctx context.Context, leader *Leader, authority *attest.Authority, leaderIdx int, shards []*genome.Matrix, reference *genome.Matrix, cfg core.Config, policy core.CollusionPolicy, opts RunOptions, channel memberChannel, hooks chaosHooks) (*Result, error) {
	g := len(shards)
	tolerant := opts.faultTolerant()
	var (
		s            sessions
		stops        []func()
		members      = make([]*Member, 0, g-1)
		memberShards = make([]int, 0, g-1)
		links        = make([]MemberLink, 0, g-1)
		meters       = make([]*transport.Meter, g)
	)
	// shutdown ends every serving session: closing the leader ends makes a
	// serving loop return, and stopping a channel ends its accept loop.
	shutdown := func() {
		for _, l := range links {
			_ = l.Conn.Close()
		}
		for _, stop := range stops {
			stop()
		}
		s.wg.Wait()
	}
	for i := 0; i < g; i++ {
		if i == leaderIdx {
			continue
		}
		platform, err := enclave.NewPlatform()
		if err != nil {
			shutdown()
			return nil, fmt.Errorf("federation: %w", err)
		}
		member, err := NewMember(fmt.Sprintf("gdo-%d", i), shards[i], platform, authority)
		if err != nil {
			shutdown()
			return nil, err
		}
		if hooks.prep != nil {
			hooks.prep(i, member)
		}
		members = append(members, member)
		memberShards = append(memberShards, i)

		dial, stop, err := channel(member, &s, opts)
		if err != nil {
			shutdown()
			return nil, err
		}
		stops = append(stops, stop)
		meter, shardIdx := &transport.Meter{}, i
		meters[i] = meter
		connect := func() (transport.Conn, error) {
			raw, err := dial()
			if err != nil {
				return nil, err
			}
			var conn transport.Conn = transport.NewMetered(raw, meter)
			if hooks.inject != nil {
				conn = hooks.inject(shardIdx, conn)
			}
			return conn, nil
		}
		conn, err := connect()
		if err != nil {
			shutdown()
			return nil, err
		}
		link := MemberLink{Conn: conn, Name: member.ID()}
		if tolerant {
			link.Redial = connect
		}
		links = append(links, link)
	}

	report, runErr := leader.RunLinksContext(ctx, links, reference, cfg, policy, opts)
	shutdown()
	if runErr != nil {
		return nil, runErr
	}
	if !tolerant && len(s.errs) > 0 {
		return nil, errors.Join(s.errs...)
	}
	return assembleResult(report, leaderIdx, g, members, memberShards, meters, shards), nil
}

// trafficStats folds the per-channel meters into the result summary.
func trafficStats(meters []*transport.Meter, shards []*genome.Matrix, leaderIdx int) TrafficStats {
	stats := TrafficStats{PerMemberBytes: make([]int64, len(meters))}
	for i, m := range meters {
		if m == nil {
			continue
		}
		stats.PerMemberBytes[i] = m.TotalBytes()
		stats.TotalBytes += m.TotalBytes()
		stats.TotalMessages += m.SentMessages() + m.RecvMessages()
	}
	for i, s := range shards {
		if i != leaderIdx {
			stats.GenomeShipBytes += vcf.EstimateBytes(s)
			stats.GenomePackedBytes += s.SizeBytes()
		}
	}
	return stats
}

package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gendpr/internal/checkpoint"
	"gendpr/internal/core"
	"gendpr/internal/enclave"
	"gendpr/internal/enclave/attest"
	"gendpr/internal/federation"
	"gendpr/internal/genome"
	"gendpr/internal/transport"
)

// Request is one assessment submission. Tenant scopes quotas; the protocol
// inputs (configuration and collusion policy) select what is assessed; the
// resilience bits select how hard the federation fights to finish it.
type Request struct {
	// Tenant is the quota scope; empty maps to "default".
	Tenant string
	// Config carries the assessment parameters (MAF cutoff, LD cutoff, LR
	// settings).
	Config core.Config
	// Policy is the collusion-tolerance policy.
	Policy core.CollusionPolicy
	// Byzantine and AllowRejoin enable the corresponding federation
	// machinery for this run (they OR onto the backend's base options).
	Byzantine   bool
	AllowRejoin bool
	// Deadline, when positive, bounds the request from admission to
	// completion — queue wait included, so a request the server cannot
	// schedule in time expires instead of wedging a slot. Zero uses the
	// server's default.
	Deadline time.Duration
}

// Response is the outcome of one admitted request.
type Response struct {
	Report *core.Report
	// Reused reports that the run replayed completed phases from a shared
	// checkpoint left by an earlier identical request (Report.Resumed).
	Reused bool
	// Coalesced reports that this request attached to an identical
	// in-flight run instead of driving the protocol itself.
	Coalesced bool
	// Wait is admission → federation-slot claim; Total is admission →
	// completion. A coalesced request reports the run it rode.
	Wait  time.Duration
	Total time.Duration
}

// Backend runs one assessment for the server. Implementations must be safe
// for concurrent Run calls — the server drives one per federation slot.
type Backend interface {
	// Fingerprint binds a request to its checkpoint namespace and
	// single-flight identity: requests with equal fingerprints produce
	// bit-identical selections, so their protocol work is shareable.
	Fingerprint(req Request) []byte
	// Run executes the assessment under ctx, checkpointing into ck when the
	// server provides one (nil disables checkpointing for this run).
	Run(ctx context.Context, req Request, ck checkpoint.Store) (*core.Report, error)
}

// LinkDialer establishes fresh member connections for one protocol run and
// returns them with a cleanup that releases whatever the dial created. Every
// run gets its own links — member serving sessions and AEAD channel state are
// per-connection — while the nodes behind them stay up across runs.
type LinkDialer func() ([]federation.MemberLink, func(), error)

// FederationBackend runs assessments over one attested federation: a
// long-lived leader plus a dialer that reaches the member nodes. It is the
// production Backend; the members behind Dial may live in-process (pipes) or
// across the network (TCP), exactly as in the one-shot runners.
type FederationBackend struct {
	// Leader is the coordinator; safe for concurrent runs (per-run provider
	// state, mutex-guarded enclave accounting).
	Leader *federation.Leader
	// Dial produces the per-run member links. Link names must equal
	// MemberNames in order — checkpoint identity depends on it.
	Dial LinkDialer
	// Reference is the public reference panel shared by every run.
	Reference *genome.Matrix
	// MemberNames are the stable member identities, aligned with the links
	// Dial returns.
	MemberNames []string
	// Options is the base fault-tolerance envelope; per-request Byzantine /
	// AllowRejoin bits OR onto it, and the server supplies Checkpoints.
	Options federation.RunOptions
}

// providerNames returns the checkpoint identity set: the leader first, then
// the members in link order (the same shape Leader.RunLinksContext builds).
func (b *FederationBackend) providerNames() []string {
	names := make([]string, 0, len(b.MemberNames)+1)
	names = append(names, b.Leader.ID())
	return append(names, b.MemberNames...)
}

// Fingerprint implements Backend via the core fingerprint: configuration,
// policy, provider names, and reference dimensions.
func (b *FederationBackend) Fingerprint(req Request) []byte {
	return core.Fingerprint(req.Config, req.Policy, b.providerNames(), b.Reference.N(), b.Reference.L())
}

// Run implements Backend: dial the members, attest, drive the protocol under
// ctx, and release the connections.
func (b *FederationBackend) Run(ctx context.Context, req Request, ck checkpoint.Store) (*core.Report, error) {
	links, cleanup, err := b.Dial()
	if err != nil {
		return nil, fmt.Errorf("service: dialing members: %w", err)
	}
	defer cleanup()
	opts := b.Options
	opts.Checkpoints = ck
	// Retention is what turns the shared store into a cache: the final
	// snapshot survives success so the next identical request replays it.
	opts.RetainCheckpoints = ck != nil
	opts.Byzantine = opts.Byzantine || req.Byzantine
	opts.AllowRejoin = opts.AllowRejoin || req.AllowRejoin
	return b.Leader.RunLinksContext(ctx, links, b.Reference, req.Config, req.Policy, opts)
}

// NewInProcessBackend assembles a complete single-process federation for the
// backend: leader gdo-0 over shards[0], one member node per remaining shard,
// all sharing one attestation authority. Each Run dials fresh in-memory pipes
// to the long-lived member nodes and attests them, mirroring the reference
// in-process deployment. The service tests run against it.
func NewInProcessBackend(shards []*genome.Matrix, reference *genome.Matrix, opts federation.RunOptions) (*FederationBackend, error) {
	if len(shards) < 2 {
		return nil, fmt.Errorf("service: in-process federation needs at least 2 shards, got %d", len(shards))
	}
	authority, err := attest.NewAuthority()
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	leaderPlatform, err := enclave.NewPlatform()
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	leader, err := federation.NewLeader("gdo-0", shards[0], leaderPlatform, authority)
	if err != nil {
		return nil, err
	}
	members := make([]*federation.Member, 0, len(shards)-1)
	names := make([]string, 0, len(shards)-1)
	for i, shard := range shards[1:] {
		platform, err := enclave.NewPlatform()
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		m, err := federation.NewMember(fmt.Sprintf("gdo-%d", i+1), shard, platform, authority)
		if err != nil {
			return nil, err
		}
		members = append(members, m)
		names = append(names, m.ID())
	}
	dial := func() ([]federation.MemberLink, func(), error) {
		links := make([]federation.MemberLink, len(members))
		// Every spawned serve goroutine is joined by cleanup: the leader ends
		// are tracked (redials included) so closing them unblocks ServeContext, and
		// the WaitGroup guarantees no session goroutine outlives its run.
		var (
			mu    sync.Mutex
			conns []transport.Conn
			wg    sync.WaitGroup
		)
		for i, m := range members {
			// spawn wires one attestable channel: a fresh pipe whose far end
			// a new goroutine serves. The member node itself is long-lived
			// and serves concurrent sessions; the goroutine ends when the
			// leader side closes or the session shuts down cleanly.
			member := m
			spawn := func() transport.Conn {
				leaderEnd, memberEnd := transport.Pipe()
				mu.Lock()
				conns = append(conns, leaderEnd)
				mu.Unlock()
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = member.ServeContext(context.Background(), memberEnd, federation.ServeOptions{})
					_ = memberEnd.Close()
				}()
				return leaderEnd
			}
			links[i] = federation.MemberLink{
				Conn:   spawn(),
				Name:   member.ID(),
				Redial: func() (transport.Conn, error) { return spawn(), nil },
			}
		}
		cleanup := func() {
			mu.Lock()
			ends := append([]transport.Conn(nil), conns...)
			mu.Unlock()
			for _, c := range ends {
				_ = c.Close()
			}
			wg.Wait()
		}
		return links, cleanup, nil
	}
	return &FederationBackend{
		Leader:      leader,
		Dial:        dial,
		Reference:   reference,
		MemberNames: names,
		Options:     opts,
	}, nil
}

// NewTCPDialer returns a LinkDialer that connects to standalone member nodes
// (cmd/gendpr-node) for every run, each link redialing its address on
// failure. Both modes of cmd/gendpr-leader dial through it. Member names are
// the addresses, matching the CLI's checkpoint identities. The members are
// dialed concurrently and the links keep the address order; when any dial
// fails, every connection that opened is closed and the first failure in
// address order is returned.
func NewTCPDialer(addrs []string, dialTimeout time.Duration) LinkDialer {
	if dialTimeout <= 0 {
		dialTimeout = transport.DefaultDialTimeout
	}
	return func() ([]federation.MemberLink, func(), error) {
		links := make([]federation.MemberLink, len(addrs))
		errs := make([]error, len(addrs))
		var wg sync.WaitGroup
		for i, addr := range addrs {
			dial := func() (transport.Conn, error) { return transport.DialTimeout(addr, dialTimeout) }
			links[i] = federation.MemberLink{Name: addr, Redial: dial}
			wg.Add(1)
			go func() {
				defer wg.Done()
				links[i].Conn, errs[i] = dial()
			}()
		}
		wg.Wait()
		cleanup := func() {
			for _, l := range links {
				if l.Conn != nil {
					_ = l.Conn.Close()
				}
			}
		}
		for _, err := range errs {
			if err != nil {
				cleanup()
				return nil, nil, err
			}
		}
		return links, cleanup, nil
	}
}

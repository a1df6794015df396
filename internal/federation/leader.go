package federation

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"gendpr/internal/core"
	"gendpr/internal/enclave"
	"gendpr/internal/enclave/attest"
	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
	"gendpr/internal/transport"
)

// ErrMemberReported marks an error the member itself computed and reported
// via KindError. These are deterministic — a malformed request or tampered
// payload fails the same way on every retry — so the leader never retries
// them and the resilient runner treats them as run-fatal.
var ErrMemberReported = errors.New("federation: member reported an error")

// Leader is the randomly elected coordinator GDO. Like every member it holds
// a private local shard; additionally its trusted coordination module
// aggregates the other members' encrypted intermediate results and runs the
// assessment pipeline.
type Leader struct {
	id string
	// local serves the leader's own shard to every run, sequential or
	// concurrent.
	local     *core.LocalMember
	enclave   *enclave.Enclave
	authority *attest.Authority
}

// NewLeader creates the coordinator node.
func NewLeader(id string, shard *genome.Matrix, platform *enclave.Platform, authority *attest.Authority) (*Leader, error) {
	if shard == nil {
		return nil, fmt.Errorf("federation: leader %s needs a genotype shard", id)
	}
	enc, err := platform.Load(CodeIdentity, enclave.Config{})
	if err != nil {
		return nil, fmt.Errorf("federation: leader %s: %w", id, err)
	}
	return &Leader{id: id, local: core.NewLocalMember(shard), enclave: enc, authority: authority}, nil
}

// ID returns the leader identifier.
func (l *Leader) ID() string { return l.id }

// MemberLink describes one member connection the leader drives.
type MemberLink struct {
	// Conn is the established raw (pre-attestation) connection.
	Conn transport.Conn
	// Name identifies the member in errors and logs.
	Name string
	// Redial, when non-nil, re-establishes a raw connection to the member
	// after a failure; the leader re-attests it before reuse. Nil disables
	// reconnection: the first transport failure declares the member failed.
	Redial func() (transport.Conn, error)
}

// RunLinksContext executes the assessment over the federation (leader shard
// plus remote members) and broadcasts the final selection, which ends each
// member's session. Each member connection is attested on first use: on a
// cold run its handshake carries the Phase-1 summary request, and on a replay
// that asks members nothing, the result broadcast. The initial link
// connections stay owned by the caller; connections the leader itself
// re-establishes via link.Redial are closed before returning.
//
// opts sets the fault-tolerance envelope: per-exchange deadlines, retry with
// redial and re-attestation, and quorum degradation. The zero RunOptions
// waits forever, never retries, and aborts on any member failure. A failed
// first handshake is never retried: it aborts the run, or under
// opts.MinQuorum excludes the member. When opts.MinQuorum is positive, the
// returned Report may list excluded members in Report.Excluded; entries are
// provider indices where 0 is the leader's own shard and i+1 is links[i].
//
// Cancelling ctx interrupts in-flight member exchanges and retry backoffs,
// and the assessment aborts at the next phase boundary with ctx.Err(); a nil
// context never cancels. When opts.Checkpoints is set, link names are the
// stable identities the checkpoint is keyed by, so a re-elected leader
// resuming a crashed run must address members by the same names.
func (l *Leader) RunLinksContext(ctx context.Context, links []MemberLink, reference *genome.Matrix, cfg core.Config, policy core.CollusionPolicy, opts RunOptions) (*core.Report, error) {
	remotes := make([]*remoteProvider, len(links))
	for i, link := range links {
		r := &remoteProvider{
			name:   link.Name,
			ctx:    ctx,
			opts:   opts,
			link:   link.Conn,
			redial: link.Redial,
			attest: func(raw transport.Conn, request uint16) (*transport.SecureConn, error) {
				return attestLeader(ctx, raw, l.authority, l.enclave, request, opts.RPCTimeout)
			},
		}
		if opts.OnEvent != nil {
			name := link.Name
			r.emit = func(event string) {
				opts.OnEvent(MemberEvent{Member: name, Event: event})
			}
		}
		remotes[i] = r
	}
	defer func() {
		for _, r := range remotes {
			r.closeOwned()
		}
	}()

	providers := make([]core.Provider, 0, len(remotes)+1)
	names := make([]string, 0, len(remotes)+1)
	providers = append(providers, l.local)
	names = append(names, l.id)
	for _, r := range remotes {
		providers = append(providers, r)
		names = append(names, r.name)
	}

	byName := make(map[string]*remoteProvider, len(remotes))
	for _, r := range remotes {
		byName[r.name] = r
	}
	resilience := core.Resilience{
		MinQuorum:   opts.MinQuorum,
		Byzantine:   opts.Byzantine,
		AllowRejoin: opts.AllowRejoin,
	}
	if opts.Byzantine || opts.AllowRejoin || opts.OnEvent != nil {
		resilience.OnTransition = func(member, event, phase string) {
			if event == "byzantine" {
				// Quarantine the connection too: the result broadcast must
				// skip it and a rejoin attempt must be refused even if the
				// equivocation was detected runner-side (plausibility checks)
				// rather than on this provider's own digest ledger.
				if r, ok := byName[member]; ok {
					r.markByzantine(phase)
				}
			}
			if opts.OnEvent != nil {
				opts.OnEvent(MemberEvent{Member: member, Event: event, Phase: phase})
			}
		}
	}

	report, err := core.RunAssessment(providers, reference, cfg, policy, l.enclave, core.AssessmentOptions{
		Context: ctx, ProviderNames: names, Checkpoints: opts.Checkpoints,
		RetainCheckpoints: opts.RetainCheckpoints, Resilience: resilience,
	})
	if err != nil {
		return nil, err
	}

	excluded := make(map[int]bool, len(report.Excluded))
	for _, e := range report.Excluded {
		excluded[e] = true
	}
	payload, err := encodeResult(report.Selection.AfterMAF, report.Selection.AfterLD, report.Selection.Safe, reference.L())
	if err != nil {
		return nil, err
	}
	// Every member gets the result at once.
	errs := make([]error, len(remotes))
	var wg sync.WaitGroup
	for i, r := range remotes {
		if excluded[i+1] {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.notify(transport.Message{Kind: KindResult, Payload: payload})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		// Under degradation a member that cannot receive its copy of the
		// result does not invalidate the leader's report; its serving loop
		// terminates when the connection closes.
		if err != nil && opts.MinQuorum <= 0 {
			return nil, fmt.Errorf("federation: broadcasting result to member %s: %w", links[i].Name, err)
		}
	}
	return report, nil
}

// remoteProvider adapts one attested member connection to the core.Provider
// interface the assessment pipeline consumes. Calls are synchronous
// request/response exchanges; the mutex keeps concurrent callers (the
// driver's parallel fetches and Phase 3's concurrent chains) from interleaving
// requests on the shared connection, and guards the health state machine
// (healthy → retrying → failed) plus the reconnect cycle.
type remoteProvider struct {
	name string
	ctx  context.Context // run context; nil means never canceled
	opts RunOptions
	// link is the caller's raw connection until its first handshake; the
	// caller keeps owning it.
	link   transport.Conn
	redial func() (transport.Conn, error)
	// attest runs the leader's side of the handshake on a raw connection,
	// its offer naming request (0 for none).
	attest func(raw transport.Conn, request uint16) (*transport.SecureConn, error)
	// emit, when non-nil, reports transport-level health transitions
	// ("retrying", "healthy", "failed"). It may be called with r.mu held.
	emit func(event string)

	mu sync.Mutex
	// conn is the attested AEAD channel. Its static type is deliberately
	// *transport.SecureConn, never the bare Conn interface: every payload a
	// remoteProvider sends carries privacy-bearing intermediates, and the
	// secretflow analyzer uses this type as the proof they leave encrypted.
	// It is nil until the first handshake, and stays nil after a failed one.
	conn      *transport.SecureConn
	owned     bool // conn was created by reconnect, not by the caller
	health    Health
	failCause error

	// Counts and CaseN answers arrive in the same KindCountsReply; fetch
	// once and serve both from the cache. Pair replies carry joint counts
	// only and are completed from the same summary, which a resumed run
	// seeds from its checkpoint instead (SeedSummary). Seeding leaves
	// summaryLoaded false: only a summary this member sent on the wire is
	// replayed as a reconnect audit.
	summaryLoaded bool
	counts        []int64
	caseN         int64

	// ledger maps every request the member has answered to the digest of
	// its reply. A member must answer the same query identically across
	// deliveries — the payloads are pure functions of its immutable shard —
	// so a second delivery (retry after redial, post-reconnect audit,
	// resume replay) with a different digest is equivocation: the member is
	// quarantined and the mismatching digests become the blame evidence.
	ledger map[ledgerKey][sha256.Size]byte
}

// ledgerKey identifies one member query: the wire kind plus the digest of
// the request payload.
type ledgerKey struct {
	kind uint16
	req  [sha256.Size]byte
}

var (
	_ core.Provider           = (*remoteProvider)(nil)
	_ core.SummaryAuditor     = (*remoteProvider)(nil)
	_ core.RejoinableProvider = (*remoteProvider)(nil)
	_ core.SummarySeeder      = (*remoteProvider)(nil)
)

// Health returns the member's current health state.
func (r *remoteProvider) Health() Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.health
}

// closeOwned closes the connection if the provider re-established it; the
// caller's original connection is left open per the Run contract.
func (r *remoteProvider) closeOwned() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.owned && r.conn != nil {
		_ = r.conn.Close()
	}
}

// markByzantine quarantines the connection after the resilient runner blamed
// this member: every further request, the result broadcast, and any rejoin
// attempt are refused.
func (r *remoteProvider) markByzantine(phase string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.health == HealthByzantine {
		return
	}
	r.health = HealthByzantine
	r.failCause = fmt.Errorf("federation: member %s quarantined as byzantine during %s", r.name, phase)
}

// memberFailed wraps the terminal cause so core.FailedMembers recognizes the
// member as degradable.
func (r *remoteProvider) memberFailed(cause error) error {
	return fmt.Errorf("federation: member %s: %w (%v)", r.name, core.ErrMemberFailed, cause)
}

// retryable reports whether a retry on a fresh connection could change the
// outcome. Member-reported and protocol-violation errors are deterministic
// or adversarial, cancellation is the caller telling the run to stop, an
// authentication failure means the channel carried a forged or tampered
// frame (retrying hands the adversary another attempt), and equivocation is
// the member caught lying; only transport-level failures are worth retrying.
func retryable(err error) bool {
	return !errors.Is(err, ErrMemberReported) && !errors.Is(err, ErrProtocol) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, transport.ErrAuth) && !errors.Is(err, core.ErrEquivocation)
}

// sleepCtx sleeps for d unless the context is canceled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil || ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// offerRequest is the request a handshake's offer names: the summary query,
// the one request that can ride a handshake, or none.
func offerRequest(summary bool) uint16 {
	if summary {
		return KindCountsRequest
	}
	return 0
}

// firstHandshakeLocked attests the caller's link, the offer naming the
// summary query when summary is set. A failed first handshake is final: it
// fails the run, or under quorum degradation the member, which is then never
// sent anything (the health gate precedes every exchange), and the caller
// keeps the raw connection.
func (r *remoteProvider) firstHandshakeLocked(summary bool) error {
	raw := r.link
	r.link = nil
	secure, err := r.attest(raw, offerRequest(summary))
	if err == nil {
		r.conn = secure
		return nil
	}
	err = fmt.Errorf("federation: leader attesting member %s: %w", r.name, err)
	r.health = HealthFailed
	r.failCause = err
	if r.opts.MinQuorum <= 0 {
		return err
	}
	return r.memberFailed(err)
}

// reconnectLocked replaces the broken connection with a freshly redialed and
// re-attested one, the offer naming the summary query when summary is set.
// The old channel is always abandoned: after a lost or faulted message its
// AEAD sequence numbers are desynchronized, so replies could never
// authenticate again.
func (r *remoteProvider) reconnectLocked(summary bool) error {
	if r.conn != nil {
		_ = r.conn.Close()
	}
	raw, err := r.redial()
	if err != nil {
		return fmt.Errorf("redial: %w", err)
	}
	secure, err := r.attest(raw, offerRequest(summary))
	if err != nil {
		_ = raw.Close()
		return fmt.Errorf("re-attest: %w", err)
	}
	r.conn = secure
	r.owned = true
	return nil
}

// exchangeLocked performs one request/response exchange under the
// configured per-operation deadline. Callers hold r.mu.
func (r *remoteProvider) exchangeLocked(req transport.Message, wantKind uint16) ([]byte, error) {
	// The mutex exists to pair each request with its reply on the shared
	// connection: holding it across Send+Recv IS the serialization, it
	// guards no other state, and a stalled member blocks only callers that
	// need this same member's answer.
	if err := transport.SendContext(r.ctx, r.conn, req, r.opts.RPCTimeout); err != nil {
		return nil, fmt.Errorf("federation: member %s send: %w", r.name, err)
	}
	return r.recvLocked(wantKind)
}

// recvLocked receives one reply of wantKind under the per-operation
// deadline: the answer to a request just sent, or to the one a handshake's
// offer named. Callers hold r.mu.
func (r *remoteProvider) recvLocked(wantKind uint16) ([]byte, error) {
	reply, err := transport.RecvContext(r.ctx, r.conn, r.opts.RPCTimeout)
	if err != nil {
		return nil, fmt.Errorf("federation: member %s recv: %w", r.name, err)
	}
	if reply.Kind == KindError {
		//gendpr:allow(secretflow): a KindError payload is the member's own error string, redacted member-side before sending
		return nil, fmt.Errorf("%w: member %s: %s", ErrMemberReported, r.name, reply.Payload)
	}
	if reply.Kind != wantKind {
		return nil, fmt.Errorf("%w: member %s replied kind %d, want %d", ErrProtocol, r.name, reply.Kind, wantKind)
	}
	return reply.Payload, nil
}

// roundTripLocked is the retry engine: exchange, and on transport failure
// back off, redial, re-attest, and re-issue until the budget runs out and
// the member is declared failed. The first exchange attests the caller's
// link, and the summary query, the one request that can ride a handshake,
// is then never sent: the member answers it straight after its offer. Every
// successful reply passes through the digest ledger, and every reconnect
// that follows a loaded summary replays it as an equivocation audit on the
// new handshake. Callers hold r.mu.
func (r *remoteProvider) roundTripLocked(req transport.Message, wantKind uint16) ([]byte, error) {
	if r.health == HealthByzantine {
		return nil, r.failCause
	}
	if r.health == HealthFailed {
		return nil, r.memberFailed(r.failCause)
	}
	rides := req.Kind == KindCountsRequest
	var lastErr error
	for attempt := 0; ; attempt++ {
		// named: this attempt's handshake named the summary request, which
		// the member answers unasked.
		named := false
		if attempt > 0 {
			if r.redial == nil || attempt > r.opts.MaxRetries {
				r.health = HealthFailed
				r.failCause = lastErr
				r.emitEvent("failed")
				return nil, r.memberFailed(lastErr)
			}
			if r.health != HealthRetrying {
				r.emitEvent("retrying")
			}
			r.health = HealthRetrying
			if err := sleepCtx(r.ctx, backoffDelay(r.opts, attempt)); err != nil {
				// Cancellation mid-backoff is not a member failure: surface it
				// unwrapped so the run aborts rather than degrades.
				return nil, err
			}
			named = rides || r.summaryLoaded
			if err := r.reconnectLocked(named); err != nil {
				lastErr = err
				continue
			}
			// A summary request's own reply is its audit (the ledger check
			// below); any other request waits for the audit first.
			if r.summaryLoaded && !rides {
				if err := r.auditReconnectLocked(); err != nil {
					if !retryable(err) {
						return nil, err
					}
					lastErr = err
					continue
				}
			}
		} else if r.conn == nil {
			named = rides
			if err := r.firstHandshakeLocked(named); err != nil {
				return nil, err
			}
		}
		var payload []byte
		var err error
		if named && rides {
			payload, err = r.recvLocked(wantKind)
		} else {
			payload, err = r.exchangeLocked(req, wantKind)
		}
		if err == nil {
			if lerr := r.checkLedgerLocked(req, payload); lerr != nil {
				return nil, lerr
			}
			if r.health == HealthRetrying {
				r.emitEvent("healthy")
			}
			r.health = HealthHealthy
			return payload, nil
		}
		if errors.Is(err, transport.ErrAuth) {
			// A frame that fails AEAD authentication is tampering, not loss:
			// declare the member failed (degradable under quorum) instead of
			// handing the adversary retry attempts.
			r.health = HealthFailed
			r.failCause = err
			r.emitEvent("failed")
			return nil, r.memberFailed(err)
		}
		if !retryable(err) {
			return nil, err
		}
		lastErr = err
	}
}

// emitEvent reports a transport-level health transition, if anyone listens.
func (r *remoteProvider) emitEvent(event string) {
	if r.emit != nil {
		r.emit(event)
	}
}

// payloadDigest computes the equivocation-ledger commitment for one wire
// payload.
//
//gendpr:declassifier(release): a SHA-256 digest is preimage-resistant commitment evidence — blame records carry it to prove an answer changed, never to reveal what the answer was
func payloadDigest(b []byte) [sha256.Size]byte {
	return sha256.Sum256(b)
}

// checkLedgerLocked records the reply digest for a query on first sight and
// verifies it on every later delivery. A mismatch quarantines the member and
// returns the equivocation evidence. Callers hold r.mu.
func (r *remoteProvider) checkLedgerLocked(req transport.Message, payload []byte) error {
	key := ledgerKey{kind: req.Kind, req: payloadDigest(req.Payload)}
	observed := payloadDigest(payload)
	if r.ledger == nil {
		r.ledger = make(map[ledgerKey][sha256.Size]byte)
	}
	prior, seen := r.ledger[key]
	if !seen {
		r.ledger[key] = observed
		return nil
	}
	if prior == observed {
		return nil
	}
	eq := &core.EquivocationError{
		Phase:    phaseForKind(req.Kind),
		Query:    fmt.Sprintf("%s:%x", queryLabel(req.Kind), key.req[:4]),
		Prior:    prior[:],
		Observed: observed[:],
	}
	err := fmt.Errorf("federation: member %s: %w", r.name, eq)
	r.health = HealthByzantine
	r.failCause = err
	return err
}

// auditReconnectLocked receives the member's answer to the summary query a
// reconnect's offer named and checks it against the ledger before the
// freshly attested channel is trusted with new work: a member (or an
// on-path adversary holding its keys) that answered honestly before the
// redial and differently after is caught here, not silently re-admitted.
// The summary query is the cheapest replay and is always the first thing a
// member ever answered. Callers hold r.mu.
func (r *remoteProvider) auditReconnectLocked() error {
	payload, err := r.recvLocked(KindCountsReply)
	if err != nil {
		return err
	}
	return r.checkLedgerLocked(transport.Message{Kind: KindCountsRequest}, payload)
}

// phaseForKind maps a request kind to the protocol phase it serves, for
// blame attribution.
func phaseForKind(kind uint16) string {
	switch kind {
	case KindCountsRequest:
		return core.PhaseSummary
	case KindPairBatchRequest:
		return core.PhaseLD
	case KindLRRequest:
		return core.PhaseLR
	default:
		return fmt.Sprintf("kind %d", kind)
	}
}

// queryLabel names a request kind in blame records.
func queryLabel(kind uint16) string {
	switch kind {
	case KindCountsRequest:
		return "counts"
	case KindPairBatchRequest:
		return "pair-batch"
	case KindLRRequest:
		return "lr"
	default:
		return fmt.Sprintf("kind-%d", kind)
	}
}

func (r *remoteProvider) roundTrip(req transport.Message, wantKind uint16) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.roundTripLocked(req, wantKind)
}

// notify delivers a fire-and-forget message (the result broadcast) under the
// send deadline, attesting the caller's link first if nothing else has. A
// failed member is skipped: it already missed the protocol.
func (r *remoteProvider) notify(m transport.Message) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.health == HealthFailed || r.health == HealthByzantine {
		return r.memberFailed(r.failCause)
	}
	if r.conn == nil {
		if err := r.firstHandshakeLocked(false); err != nil {
			return err
		}
	}
	if err := transport.SendContext(r.ctx, r.conn, m, r.opts.RPCTimeout); err != nil {
		return fmt.Errorf("federation: member %s send: %w", r.name, err)
	}
	return nil
}

// Rejoin implements core.RejoinableProvider: a crash-failed member gets one
// fresh redialed and re-attested channel and a clean health slate, so the
// resilient runner can audit it and re-admit it at the next phase boundary.
// A quarantined (byzantine) member is refused outright.
func (r *remoteProvider) Rejoin() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.health == HealthByzantine {
		return fmt.Errorf("federation: member %s is quarantined and barred from rejoining: %w", r.name, core.ErrEquivocation)
	}
	if r.redial == nil {
		return fmt.Errorf("federation: member %s cannot rejoin: no redial path", r.name)
	}
	if err := r.reconnectLocked(false); err != nil {
		return fmt.Errorf("federation: member %s rejoin: %w", r.name, err)
	}
	r.health = HealthHealthy
	r.failCause = nil
	return nil
}

// AuditSummary implements core.SummaryAuditor: it re-asks the member for its
// summary over the live channel, bypassing the local cache. The reply passes
// through the digest ledger, so a member that changed its story since the
// first delivery is caught as an equivocator right here.
func (r *remoteProvider) AuditSummary() ([]int64, int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	payload, err := r.roundTripLocked(transport.Message{Kind: KindCountsRequest}, KindCountsReply)
	if err != nil {
		return nil, 0, err
	}
	counts, n, err := decodeCounts(payload)
	if err != nil {
		return nil, 0, err
	}
	return counts, n, nil
}

// loadSummaryLocked fetches the member's counts/population reply once; both
// Counts and CaseN are served from it. Callers hold r.mu.
func (r *remoteProvider) loadSummaryLocked() error {
	if r.summaryLoaded {
		return nil
	}
	payload, err := r.roundTripLocked(transport.Message{Kind: KindCountsRequest}, KindCountsReply)
	if err != nil {
		return err
	}
	counts, n, err := decodeCounts(payload)
	if err != nil {
		return err
	}
	r.counts, r.caseN, r.summaryLoaded = counts, n, true
	return nil
}

func (r *remoteProvider) Counts() ([]int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.loadSummaryLocked(); err != nil {
		return nil, err
	}
	return r.counts, nil
}

func (r *remoteProvider) CaseN() (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.loadSummaryLocked(); err != nil {
		return 0, err
	}
	return r.caseN, nil
}

// SeedSummary implements core.SummarySeeder: a resumed run hands down the
// checkpointed summary it audited, and pair replies are completed from it
// without a counts message.
func (r *remoteProvider) SeedSummary(counts []int64, caseN int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.summaryLoaded {
		r.counts, r.caseN = counts, caseN
	}
}

// PairStats is a batch of one.
func (r *remoteProvider) PairStats(a, b int) (genome.PairStats, error) {
	stats, err := r.PairStatsBatch([][2]int{{a, b}})
	if err != nil {
		return genome.PairStats{}, err
	}
	return stats[0], nil
}

// PairStatsBatch asks the member for the pairs' joint counts in one round
// trip and completes each into its sufficient statistics from the member's
// Phase-1 summary, which every assessment path loads (Phase 1) or seeds
// (resume) before Phase 2; without one no index is in range and the request
// is refused unsent. The leader validates the result: a joint count outside
// the bounds its marginals allow is a Byzantine contribution.
func (r *remoteProvider) PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	req, err := encodePairBatchRequest(pairs, len(r.counts))
	if err != nil {
		return nil, err
	}
	payload, err := r.roundTripLocked(transport.Message{Kind: KindPairBatchRequest, Payload: req}, KindPairBatchReply)
	if err != nil {
		return nil, err
	}
	xy, err := decodePairBatchReply(payload, r.caseN)
	if err != nil {
		return nil, err
	}
	if len(xy) != len(pairs) {
		return nil, fmt.Errorf("%w: member %s returned %d joint counts for %d pairs", ErrProtocol, r.name, len(xy), len(pairs))
	}
	stats := make([]genome.PairStats, len(pairs))
	for i, p := range pairs {
		stats[i] = genome.PairStatsFromCounts(r.caseN, r.counts[p[0]], r.counts[p[1]], xy[i])
	}
	return stats, nil
}

// LRMatrix is the member's pattern skinned leader-side (core.PatternLRMatrix):
// the frequencies never leave the leader.
func (r *remoteProvider) LRMatrix(cols []int, caseFreq, refFreq []float64) (*lrtest.BitMatrix, error) {
	return core.PatternLRMatrix(r, cols, caseFreq, refFreq)
}

// LRPattern asks the member for its genotype pattern over cols, and accepts
// only a pattern of exactly that many columns.
func (r *remoteProvider) LRPattern(cols []int) (*lrtest.BitMatrix, error) {
	payload, err := r.roundTrip(transport.Message{Kind: KindLRRequest, Payload: encodeLRRequest(cols)}, KindLRReply)
	if err != nil {
		return nil, err
	}
	p, err := lrtest.DecodePatternWireCols(payload, len(cols))
	if err != nil {
		return nil, fmt.Errorf("federation: member %s genotype pattern: %w", r.name, err)
	}
	return p, nil
}

package federation

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strconv"
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
	// concurrent: the shard's prepared view is built once, not per request.
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

// Run attests every member connection, executes the assessment over the
// federation (leader shard plus remote members), broadcasts the final
// selection, and shuts the members down. The raw connections are owned by
// the caller and are not closed. It is RunLinks with the zero RunOptions:
// no deadlines, no retries, abort on any member failure.
func (l *Leader) Run(memberConns []transport.Conn, reference *genome.Matrix, cfg core.Config, policy core.CollusionPolicy) (*core.Report, error) {
	links := make([]MemberLink, len(memberConns))
	for i, c := range memberConns {
		links[i] = MemberLink{Conn: c, Name: strconv.Itoa(i)}
	}
	return l.RunLinks(links, reference, cfg, policy, RunOptions{})
}

// RunLinks is Run with explicit fault-tolerance options: per-exchange
// deadlines, retry with redial and re-attestation, and quorum degradation.
// Connections the leader itself re-establishes via link.Redial are closed
// before returning; the initial link connections stay owned by the caller.
//
// When opts.MinQuorum is positive, the returned Report may list excluded
// members in Report.Excluded; entries are provider indices where 0 is the
// leader's own shard and i+1 is links[i].
func (l *Leader) RunLinks(links []MemberLink, reference *genome.Matrix, cfg core.Config, policy core.CollusionPolicy, opts RunOptions) (*core.Report, error) {
	return l.RunLinksContext(nil, links, reference, cfg, policy, opts)
}

// RunLinksContext is RunLinks under a context: cancellation interrupts
// in-flight member exchanges and retry backoffs, and the assessment aborts at
// the next phase boundary with ctx.Err(). A nil or never-canceled context
// reproduces RunLinks exactly. When opts.Checkpoints is set, link names are
// the stable identities the checkpoint is keyed by, so a re-elected leader
// resuming a crashed run must address members by the same names.
func (l *Leader) RunLinksContext(ctx context.Context, links []MemberLink, reference *genome.Matrix, cfg core.Config, policy core.CollusionPolicy, opts RunOptions) (*core.Report, error) {
	remotes := make([]*remoteProvider, len(links))
	for i, link := range links {
		r := &remoteProvider{
			name:   link.Name,
			ctx:    ctx,
			opts:   opts,
			redial: link.Redial,
			attest: func(raw transport.Conn) (*transport.SecureConn, error) {
				return attestConnContext(ctx, raw, l.authority, l.enclave, true, opts.RPCTimeout)
			},
		}
		if opts.OnEvent != nil {
			name := link.Name
			r.emit = func(event string) {
				opts.OnEvent(MemberEvent{Member: name, Event: event})
			}
		}
		conn, err := r.attest(link.Conn)
		if err != nil {
			err = fmt.Errorf("federation: leader attesting member %s: %w", link.Name, err)
			if opts.MinQuorum <= 0 {
				return nil, err
			}
			// Degradation is on: carry the member in the failed state so the
			// assessment can exclude it instead of aborting the federation.
			// r.conn stays nil — a member without an attested channel is
			// never sent anything (the health gate precedes every exchange),
			// and the caller keeps ownership of the raw connection.
			r.health = HealthFailed
			r.failCause = err
		} else {
			r.conn = conn
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

	report, err := core.RunAssessmentResilientWithOptions(providers, reference, cfg, policy, l.enclave,
		resilience,
		core.AssessmentOptions{Context: ctx, ProviderNames: names, Checkpoints: opts.Checkpoints,
			RetainCheckpoints: opts.RetainCheckpoints})
	if err != nil {
		return nil, err
	}

	excluded := make(map[int]bool, len(report.Excluded))
	for _, e := range report.Excluded {
		excluded[e] = true
	}
	payload := encodeResult(report.Selection.AfterMAF, report.Selection.AfterLD, report.Selection.Safe)
	for i, r := range remotes {
		if excluded[i+1] {
			continue
		}
		err := r.notify(
			transport.Message{Kind: KindResult, Payload: payload},
			transport.Message{Kind: KindShutdown},
		)
		if err != nil && opts.MinQuorum <= 0 {
			return nil, fmt.Errorf("federation: broadcasting result to member %s: %w", links[i].Name, err)
		}
		// Under degradation a member that cannot receive its copy of the
		// result does not invalidate the leader's report; its serving loop
		// terminates when the connection closes.
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
	name   string
	ctx    context.Context // run context; nil means never canceled
	opts   RunOptions
	redial func() (transport.Conn, error)
	attest func(raw transport.Conn) (*transport.SecureConn, error)
	// emit, when non-nil, reports transport-level health transitions
	// ("retrying", "healthy", "failed"). It may be called with r.mu held.
	emit func(event string)

	mu sync.Mutex
	// conn is the attested AEAD channel. Its static type is deliberately
	// *transport.SecureConn, never the bare Conn interface: every payload a
	// remoteProvider sends carries privacy-bearing intermediates, and the
	// secretflow analyzer uses this type as the proof they leave encrypted.
	// It is nil exactly when health is HealthFailed from construction.
	conn      *transport.SecureConn
	owned     bool // conn was created by reconnect, not by the caller
	health    Health
	failCause error

	// Counts and CaseN answers arrive in the same KindCountsReply; fetch
	// once and serve both from the cache.
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
	_ core.BatchPairProvider  = (*remoteProvider)(nil)
	_ core.PatternProvider    = (*remoteProvider)(nil)
	_ core.SummaryAuditor     = (*remoteProvider)(nil)
	_ core.RejoinableProvider = (*remoteProvider)(nil)
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

// reconnectLocked replaces the broken connection with a freshly redialed and
// re-attested one. The old channel is always abandoned: after a lost or
// faulted message its AEAD sequence numbers are desynchronized, so replies
// could never authenticate again.
func (r *remoteProvider) reconnectLocked() error {
	if r.conn != nil {
		_ = r.conn.Close()
	}
	raw, err := r.redial()
	if err != nil {
		return fmt.Errorf("redial: %w", err)
	}
	secure, err := r.attest(raw)
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
	//gendpr:allow(lockacrosssend): per-connection RPC serializer; the lock scope is exactly one request/response exchange
	if err := transport.SendContext(r.ctx, r.conn, req, r.opts.RPCTimeout); err != nil {
		return nil, fmt.Errorf("federation: member %s send: %w", r.name, err)
	}
	//gendpr:allow(lockacrosssend): same request/response pairing as the send above
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
// the member is declared failed. Every successful reply passes through the
// digest ledger, and every reconnect replays an already-answered query as an
// equivocation audit. Callers hold r.mu.
func (r *remoteProvider) roundTripLocked(req transport.Message, wantKind uint16) ([]byte, error) {
	if r.health == HealthByzantine {
		return nil, r.failCause
	}
	if r.health == HealthFailed {
		return nil, r.memberFailed(r.failCause)
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
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
			if err := r.reconnectLocked(); err != nil {
				lastErr = err
				continue
			}
			if err := r.auditReconnectLocked(); err != nil {
				if !retryable(err) {
					return nil, err
				}
				lastErr = err
				continue
			}
		}
		payload, err := r.exchangeLocked(req, wantKind)
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

// auditReconnectLocked re-issues an already-answered query on the freshly
// attested channel before trusting it with new work: a member (or an
// on-path adversary holding its keys) that answered honestly before the
// redial and differently after is caught here, not silently re-admitted.
// The summary query is the cheapest replay and is always the first thing a
// member ever answered. Callers hold r.mu.
func (r *remoteProvider) auditReconnectLocked() error {
	if !r.summaryLoaded {
		return nil
	}
	payload, err := r.exchangeLocked(transport.Message{Kind: KindCountsRequest}, KindCountsReply)
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
	case KindPairRequest, KindPairBatchRequest:
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
	case KindPairRequest:
		return "pair"
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

// notify delivers fire-and-forget messages (result broadcast, shutdown)
// under the send deadline. A failed member is skipped silently: it already
// missed the protocol.
func (r *remoteProvider) notify(msgs ...transport.Message) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.health == HealthFailed || r.health == HealthByzantine {
		return r.memberFailed(r.failCause)
	}
	for _, m := range msgs {
		//gendpr:allow(lockacrosssend): broadcast serialized on the same per-connection RPC lock
		if err := transport.SendContext(r.ctx, r.conn, m, r.opts.RPCTimeout); err != nil {
			return fmt.Errorf("federation: member %s send: %w", r.name, err)
		}
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
	if err := r.reconnectLocked(); err != nil {
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

func (r *remoteProvider) PairStats(a, b int) (genome.PairStats, error) {
	payload, err := r.roundTrip(transport.Message{Kind: KindPairRequest, Payload: encodePairRequest(a, b)}, KindPairReply)
	if err != nil {
		return genome.PairStats{}, err
	}
	return decodePairStats(payload)
}

// PairStatsBatch implements core.BatchPairProvider: one round trip for a
// whole LD sweep's worth of pairs.
func (r *remoteProvider) PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error) {
	payload, err := r.roundTrip(transport.Message{
		Kind:    KindPairBatchRequest,
		Payload: encodePairBatchRequest(pairs),
	}, KindPairBatchReply)
	if err != nil {
		return nil, err
	}
	stats, err := decodePairBatchReply(payload)
	if err != nil {
		return nil, err
	}
	if len(stats) != len(pairs) {
		return nil, fmt.Errorf("%w: member %s returned %d stats for %d pairs", ErrProtocol, r.name, len(stats), len(pairs))
	}
	return stats, nil
}

func (r *remoteProvider) LRMatrix(cols []int, caseFreq, refFreq []float64) (*lrtest.BitMatrix, error) {
	payload, err := r.roundTrip(transport.Message{Kind: KindLRRequest, Payload: encodeLRRequest(cols, caseFreq, refFreq)}, KindLRReply)
	if err != nil {
		return nil, err
	}
	// Decode straight into the bit-packed form: the leader enclave never
	// materializes a member's dense LR-matrix.
	m, err := lrtest.DecodeWireBit(payload)
	if err != nil {
		return nil, fmt.Errorf("federation: member %s LR-matrix: %w", r.name, err)
	}
	return m, nil
}

// LRPattern implements core.PatternProvider over the existing Phase 3 wire
// kinds: a frequency-free KindLRRequest asks for the genotype bit-pattern.
func (r *remoteProvider) LRPattern(cols []int) (*lrtest.BitMatrix, error) {
	if len(cols) == 0 {
		// A zero-column pattern request is indistinguishable on the wire from
		// an empty LR-matrix request, and the replies agree shape-for-shape
		// (an LR-matrix with no columns carries no representatives), so reuse
		// the matrix path.
		return r.LRMatrix(nil, nil, nil)
	}
	payload, err := r.roundTrip(transport.Message{Kind: KindLRRequest, Payload: encodeLRRequest(cols, nil, nil)}, KindLRReply)
	if err != nil {
		return nil, err
	}
	p, err := lrtest.DecodePatternWire(payload)
	if err != nil {
		return nil, fmt.Errorf("federation: member %s genotype pattern: %w", r.name, err)
	}
	return p, nil
}

package federation

import (
	"sync"
	"time"

	"gendpr/internal/checkpoint"
	"gendpr/internal/crand"
	"gendpr/internal/transport"
)

// DefaultBackoff is the base delay before the first retry when RunOptions
// enables retries without choosing one.
const DefaultBackoff = 50 * time.Millisecond

// maxBackoff caps the exponential growth of the retry delay.
const maxBackoff = 5 * time.Second

// RunOptions configures the fault-tolerance envelope of a federation run.
// The zero value reproduces the base protocol exactly: no deadlines, no
// retries, and any member failure aborts the assessment. A run tolerates
// member failures only when MaxRetries, MinQuorum or AllowRejoin asks for it
// (faultTolerant); deadlines, checkpoints and events alone keep the base
// protocol's failure semantics.
type RunOptions struct {
	// RPCTimeout bounds each request/response exchange with a member,
	// including each attestation handshake step. Zero waits forever.
	RPCTimeout time.Duration
	// DialTimeout bounds re-establishing a dropped member connection. Zero
	// uses transport.DefaultDialTimeout.
	DialTimeout time.Duration
	// MaxRetries is how many times a failed member RPC is re-issued before
	// the member is declared failed. Member RPCs are idempotent — counts,
	// pair batches, and LR-matrices are pure functions of the shard — so
	// re-issuing is always safe. Every retry runs on a freshly redialed and
	// re-attested connection: the old channel's AEAD sequence numbers are
	// unrecoverable once a message is lost. Zero disables retries.
	MaxRetries int
	// Backoff is the base delay before the first retry; it doubles per
	// attempt (capped at 5s) with random jitter in [base/2, base]. Zero uses
	// DefaultBackoff.
	Backoff time.Duration
	// MinQuorum, when positive, enables quorum degradation: a member
	// declared failed is excluded and the assessment restarts over the
	// survivors as long as at least MinQuorum providers (counting the
	// leader's own shard) remain. Zero aborts on any member failure.
	MinQuorum int
	// Checkpoints, when non-nil, makes the leader persist a snapshot at
	// every phase boundary and seed its run from a compatible existing
	// snapshot. The store is leader-side state only — members never see it.
	// With a durable store (checkpoint.FileStore) a leader re-elected after
	// a crash resumes the assessment instead of recomputing it.
	Checkpoints checkpoint.Store
	// RetainCheckpoints keeps the final snapshot in Checkpoints after a
	// successful run instead of clearing it, so a later run with the same
	// fingerprint replays the completed phases. The assessment service sets
	// it to share checkpoints between identical requests; one-shot CLI runs
	// leave it false.
	RetainCheckpoints bool
	// Byzantine enables semantic fault containment on top of quorum
	// degradation: a member whose answers fail cross-member plausibility
	// checks, or that answers the same query differently across deliveries
	// (equivocation), is quarantined with an attributing blame record in
	// Report.Blamed instead of aborting the run. Requires MinQuorum > 0 to
	// have any effect beyond attribution.
	Byzantine bool
	// AllowRejoin permits a member excluded for a crash-class failure to
	// re-attest and rejoin at the next phase boundary (once per member per
	// run). Members blamed for equivocation or invalid payloads are barred.
	// Implies the Byzantine classification machinery.
	AllowRejoin bool
	// OnEvent, when set, observes member health transitions as they happen:
	// transport-level degradation ("retrying", "healthy", "failed") and
	// runner-level membership changes ("excluded", "byzantine", "rejoined").
	// The callback may fire from the leader's RPC path while internal locks
	// are held: it must be fast and must not call back into the federation.
	OnEvent func(MemberEvent)
}

// MemberEvent is one member health transition reported via RunOptions.OnEvent.
type MemberEvent struct {
	// Member is the member's link name.
	Member string
	// Event is the transition: "retrying", "healthy", "failed" at the
	// transport layer; "excluded", "byzantine", "rejoined" at the runner.
	Event string
	// Phase is the protocol phase implicated by a runner-level event; empty
	// for transport-level transitions.
	Phase string
}

// faultTolerant reports whether the run tolerates member failures: it
// retries, degrades, or lets excluded members rejoin. The in-process and TCP
// runners give a tolerant run's links a redial and take its leader's report
// as authoritative over member serving errors; any other run — the zero
// RunOptions included, and deadlines or checkpoints alone — is the base
// protocol, where any member failure fails the run.
func (o RunOptions) faultTolerant() bool {
	return o.MaxRetries > 0 || o.MinQuorum > 0 || o.AllowRejoin
}

func (o RunOptions) dialTimeout() time.Duration {
	if o.DialTimeout > 0 {
		return o.DialTimeout
	}
	return transport.DefaultDialTimeout
}

func (o RunOptions) backoffBase() time.Duration {
	if o.Backoff > 0 {
		return o.Backoff
	}
	return DefaultBackoff
}

// backoffDelay returns the jittered delay before the attempt-th retry
// (1-based): base doubled per attempt, capped, with the jitter drawn from
// the crypto-backed source so colluding members cannot predict the leader's
// retry schedule.
func backoffDelay(o RunOptions, attempt int) time.Duration {
	d := o.backoffBase()
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return jitter(d)
}

var (
	jitterMu  sync.Mutex
	jitterSrc = crand.New()
)

// jitter maps d to a uniform value in [d/2, d]. The source is not
// concurrency-safe, so draws are serialized; retries are rare and the
// critical section is a few buffered byte reads.
func jitter(d time.Duration) time.Duration {
	if d < 2 {
		return d
	}
	half := d / 2
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return half + time.Duration(jitterSrc.Intn(int(half)+1))
}

// Health is the leader-side state of one member connection.
type Health uint8

const (
	// HealthHealthy means the last exchange with the member succeeded.
	HealthHealthy Health = iota
	// HealthRetrying means an exchange failed and the leader is inside the
	// redial/re-attest/backoff cycle.
	HealthRetrying
	// HealthFailed means the retry budget is exhausted; the member is
	// declared failed and every further request fails immediately.
	HealthFailed
	// HealthByzantine means the member was caught equivocating or serving
	// implausible payloads: it is quarantined — never retried, never sent
	// the result broadcast, and barred from rejoining.
	HealthByzantine
)

func (h Health) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthRetrying:
		return "retrying"
	case HealthByzantine:
		return "byzantine"
	default:
		return "failed"
	}
}

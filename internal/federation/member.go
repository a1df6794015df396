package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gendpr/internal/core"
	"gendpr/internal/enclave"
	"gendpr/internal/enclave/attest"
	"gendpr/internal/genome"
	"gendpr/internal/transport"
)

// Member is one non-leader genome data owner: its private shard stays on its
// premises, and its trusted module answers the leader's requests with
// encrypted intermediate results.
type Member struct {
	id        string
	shard     *genome.Matrix
	enclave   *enclave.Enclave
	authority *attest.Authority

	mu     sync.Mutex
	result *core.Selection
	// prov is the shard provider shared by every serving session: redials
	// reach the same provider state, so a wrapper's behavior (fault
	// injection counters, caches) survives reconnection like a real member
	// process would.
	prov core.Provider
	wrap func(core.Provider) core.Provider
}

// NewMember creates a member node. The enclave is loaded on the member's
// platform from the federation code identity; the authority stands in for
// the attestation infrastructure both sides trust.
func NewMember(id string, shard *genome.Matrix, platform *enclave.Platform, authority *attest.Authority) (*Member, error) {
	if shard == nil {
		return nil, fmt.Errorf("federation: member %s needs a genotype shard", id)
	}
	enc, err := platform.Load(CodeIdentity, enclave.Config{})
	if err != nil {
		return nil, fmt.Errorf("federation: member %s: %w", id, err)
	}
	return &Member{id: id, shard: shard, enclave: enc, authority: authority}, nil
}

// ID returns the member identifier.
func (m *Member) ID() string { return m.id }

// WrapProvider installs a hook that wraps the member's shard provider the
// first time a serving session needs it. The chaos harness uses it to splice
// a core.ByzantineProvider under the wire layer; production members never
// call it. It must be set before serving begins and resets any provider
// already built.
func (m *Member) WrapProvider(wrap func(core.Provider) core.Provider) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.wrap = wrap
	m.prov = nil
}

// provider returns the shared shard provider, building it on first use.
func (m *Member) provider() core.Provider {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.prov == nil {
		var p core.Provider = core.NewLocalMember(m.shard)
		if m.wrap != nil {
			p = m.wrap(p)
		}
		m.prov = p
	}
	return m.prov
}

// LastResult returns the final selection broadcast by the leader, if the
// protocol completed.
func (m *Member) LastResult() *core.Selection {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.result
}

// ServeOptions configures a member's serving loop.
type ServeOptions struct {
	// IdleTimeout bounds the wait for the next leader message (and each
	// attestation handshake step); when it expires the member stops serving
	// with a timeout error, freeing the slot for a reconnecting leader.
	// Zero waits forever.
	IdleTimeout time.Duration
}

// ServeContext attests the connection to the leader, answers the request its
// offer named, if any, and then answers requests until the leader's result
// arrives or the connection closes. It returns nil once the result is in. A
// failed attestation closes raw without sending anything on it.
// Malformed requests — decode failures, protocol violations, out-of-range
// queries — are answered with KindError and the loop keeps serving: a single
// bad request must not tear down an attested session the leader may still
// need. Teardown is reserved for transport failures, where the channel itself
// is gone.
//
// opts.IdleTimeout bounds the wait for each leader message. Cancelling ctx
// interrupts an in-flight attestation step, receive, or reply, and the loop
// returns ctx.Err(); a nil context never cancels. This is how a member node
// shuts down cleanly on a signal while parked waiting for the next leader
// request.
func (m *Member) ServeContext(ctx context.Context, raw transport.Conn, opts ServeOptions) error {
	conn, summary, err := attestMember(ctx, raw, m.authority, m.enclave, opts.IdleTimeout)
	if err != nil {
		// Hang up: a leader whose offer was refused hears nothing from this
		// member but the closed connection.
		_ = raw.Close()
		return fmt.Errorf("federation: member %s: %w", m.id, err)
	}
	local := m.provider()
	// respond answers one request and reports whether the session is over.
	respond := func(msg transport.Message) (bool, error) {
		reply, done, err := m.handle(local, msg)
		if err != nil {
			reply = &transport.Message{Kind: KindError, Payload: []byte(err.Error())}
		}
		if reply != nil {
			if sendErr := transport.SendContext(ctx, conn, *reply, 0); sendErr != nil {
				if err != nil {
					return false, fmt.Errorf("federation: member %s reporting %q: %w", m.id, err, sendErr)
				}
				return false, fmt.Errorf("federation: member %s send: %w", m.id, sendErr)
			}
		}
		return done, nil
	}
	if summary {
		// The leader's summary request rode its offer: answer it unasked.
		if _, err := respond(transport.Message{Kind: KindCountsRequest}); err != nil {
			return err
		}
	}
	for {
		msg, err := transport.RecvContext(ctx, conn, opts.IdleTimeout)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("federation: member %s: %w", m.id, err)
			}
			if errors.Is(err, transport.ErrClosed) {
				return fmt.Errorf("federation: member %s: leader disconnected", m.id)
			}
			return fmt.Errorf("federation: member %s recv: %w", m.id, err)
		}
		done, err := respond(msg)
		if err != nil || done {
			return err
		}
	}
}

// handle dispatches one leader request. It returns the reply (nil when the
// message needs none) and whether the serving loop should end.
func (m *Member) handle(local core.Provider, msg transport.Message) (*transport.Message, bool, error) {
	switch msg.Kind {
	case KindCountsRequest:
		counts, err := local.Counts()
		if err != nil {
			return nil, false, err
		}
		n, err := local.CaseN()
		if err != nil {
			return nil, false, err
		}
		payload, err := encodeCounts(counts, n)
		if err != nil {
			return nil, false, err
		}
		return &transport.Message{Kind: KindCountsReply, Payload: payload}, false, nil

	case KindPairBatchRequest:
		pairs, err := decodePairBatchRequest(msg.Payload, m.shard.L())
		if err != nil {
			return nil, false, err
		}
		stats, err := local.PairStatsBatch(pairs)
		if err != nil {
			return nil, false, err
		}
		n, err := local.CaseN()
		if err != nil {
			return nil, false, err
		}
		payload, err := encodePairBatchReply(stats, n)
		if err != nil {
			return nil, false, err
		}
		return &transport.Message{Kind: KindPairBatchReply, Payload: payload}, false, nil

	case KindLRRequest:
		cols, err := decodeLRRequest(msg.Payload)
		if err != nil {
			return nil, false, err
		}
		p, err := local.LRPattern(cols)
		if err != nil {
			return nil, false, err
		}
		return &transport.Message{Kind: KindLRReply, Payload: p.EncodePatternWire()}, false, nil

	case KindResult:
		afterMAF, afterLD, safe, err := decodeResult(msg.Payload, m.shard.L())
		if err != nil {
			return nil, false, err
		}
		m.mu.Lock()
		m.result = &core.Selection{AfterMAF: afterMAF, AfterLD: afterLD, Safe: safe}
		m.mu.Unlock()
		// The result is the leader's last word: the session ends with it.
		return nil, true, nil

	default:
		return nil, false, fmt.Errorf("%w: unexpected message kind %d", ErrProtocol, msg.Kind)
	}
}

package federation

import (
	"context"
	"errors"
	"fmt"

	"gendpr/internal/checkpoint"
	"gendpr/internal/core"
	"gendpr/internal/enclave/attest"
	"gendpr/internal/genome"
)

// ErrNoElectableLeader is returned when every candidate leader has died and
// nobody is left to coordinate the assessment.
var ErrNoElectableLeader = errors.New("federation: every candidate leader has failed")

// RunInProcessWithFailover is RunInProcess with Section 5.2 leader failover
// layered on top: when the elected leader dies mid-run (its run context is
// canceled), the survivors re-run the committed-nonce election among
// themselves — a dead leader is struck from the electable set, though its
// restarted node keeps contributing its shard as an ordinary member — and the
// new leader resumes the assessment from the latest checkpoint rather than
// recomputing completed phases. When opts.Checkpoints is nil the successive
// leaders share an in-memory store; pass a checkpoint.FileStore to model
// durable on-disk snapshots.
func RunInProcessWithFailover(ctx context.Context, shards []*genome.Matrix, reference *genome.Matrix, cfg core.Config, policy core.CollusionPolicy, opts RunOptions) (*Result, error) {
	return runFailover(ctx, shards, reference, cfg, policy, opts, chaosHooks{})
}

func runFailover(ctx context.Context, shards []*genome.Matrix, reference *genome.Matrix, cfg core.Config, policy core.CollusionPolicy, opts RunOptions, hooks chaosHooks) (*Result, error) {
	g := len(shards)
	if g == 0 {
		return nil, core.ErrNoMembers
	}
	if opts.Checkpoints == nil {
		opts.Checkpoints = checkpoint.NewMemStore()
	}
	authority, err := attest.NewAuthority()
	if err != nil {
		return nil, fmt.Errorf("federation: %w", err)
	}
	base := ctx
	if base == nil {
		base = context.Background()
	}

	dead := make(map[int]bool, g)
	var former []int
	for attempt := 0; ; attempt++ {
		// Re-run the Section 5.2 election over the surviving candidates. The
		// shard identities (and with them the checkpoint fingerprint) stay
		// fixed; only who coordinates changes.
		electable := make([]int, 0, g)
		for i := 0; i < g; i++ {
			if !dead[i] {
				electable = append(electable, i)
			}
		}
		leaderIdx, err := elect(electable)
		if err != nil {
			return nil, err
		}
		leader, err := newLeaderNode(shards, leaderIdx, authority)
		if err != nil {
			return nil, err
		}

		runCtx, cancel := context.WithCancel(base)
		attemptOpts := opts
		if hooks.failover != nil {
			attemptOpts.Checkpoints = hooks.failover(attempt, leaderIdx, cancel, opts.Checkpoints)
		}
		res, err := runWithLeader(runCtx, leader, authority, leaderIdx, shards, reference, cfg, policy, attemptOpts, pipeChannel, hooks)
		cancel()
		if err == nil {
			res.FormerLeaders = append([]int(nil), former...)
			return res, nil
		}
		if ctx != nil && ctx.Err() != nil {
			// The whole federation was canceled, not just this leader.
			return nil, ctx.Err()
		}
		if !errors.Is(err, context.Canceled) {
			return nil, err
		}
		// The leader died mid-run: strike it from the electable set, keep its
		// checkpoints, and let the survivors elect a successor.
		dead[leaderIdx] = true
		former = append(former, leaderIdx)
	}
}

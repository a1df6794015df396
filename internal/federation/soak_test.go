package federation

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"gendpr/internal/checkpoint"
	"gendpr/internal/core"
	"gendpr/internal/transport"
)

// The chaos soak composes every fault class this package can inject —
// transport faults, Byzantine perturbations, leader kills, checkpoint
// corruption — from one PRNG seed, so a failure reproduces exactly by
// re-running with the printed seed. Every iteration must end in one of the
// two acceptable outcomes: a selection bit-identical to the fault-free
// baseline, or a correct degradation with an accurate excluded/blamed set
// and the survivors' baseline selection. Anything else — a hang, a silent
// wrong answer, a quarantined member sneaking back into the quorum — fails
// the soak.
//
// Knobs (environment):
//
//	GENDPR_SOAK_SEED  PRNG seed (default 20260807)
//	GENDPR_SOAK_N     iterations (default 25; 6 under -short)

const defaultSoakSeed = 20260807

func soakParams() (seed int64, iters int) {
	seed = defaultSoakSeed
	if s := os.Getenv("GENDPR_SOAK_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			seed = v
		}
	}
	iters = 25
	if testing.Short() {
		iters = 6
	}
	if s := os.Getenv("GENDPR_SOAK_N"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			iters = v
		}
	}
	return seed, iters
}

// guardSoak runs one federation under the watchdog, turning a hang into an
// error instead of a stuck suite.
func guardSoak(run func() (*Result, error)) (*Result, error) {
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := run()
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(chaosWatchdog):
		return nil, fmt.Errorf("run hung past the %v watchdog", chaosWatchdog)
	}
}

// soakTally is the soak's blame summary, logged (and archived by check.sh)
// at the end of a run.
type soakTally struct {
	blamed      int // blame records collected across iterations
	quarantined int // members excluded for byzantine behavior
	rejoined    int // members that crashed, re-attested, and rejoined
}

func TestChaosSoak(t *testing.T) {
	seed, iters := soakParams()
	rng := rand.New(rand.NewSource(seed))
	f := newChaosFixture(t)
	tally := &soakTally{}
	classNames := []string{"transport", "byzantine", "storage", "rejoin"}
	classCounts := make([]int, len(classNames))
	for i := 0; i < iters; i++ {
		class := rng.Intn(len(classNames))
		classCounts[class]++
		var err error
		switch class {
		case 0:
			err = soakTransport(t, f, rng)
		case 1:
			err = soakByzantine(t, f, rng, tally)
		case 2:
			err = soakStorage(t, f, rng)
		case 3:
			err = soakRejoin(t, f, rng, tally)
		}
		if err != nil {
			t.Fatalf("soak seed %d iteration %d class %s: %v", seed, i, classNames[class], err)
		}
	}
	summary := ""
	for c, n := range classCounts {
		summary += fmt.Sprintf(" %s=%d", classNames[c], n)
		if iters >= 20 && n == 0 {
			t.Errorf("soak seed %d never drew fault class %s in %d iterations", seed, classNames[c], iters)
		}
	}
	t.Logf("soak seed %d: %d iterations%s", seed, iters, summary)
	t.Logf("soak seed %d blame summary: %d blame records, %d members quarantined, %d members rejoined",
		seed, tally.blamed, tally.quarantined, tally.rejoined)
}

// soakMsgKinds are the protocol steps the random fault points target, per
// direction. Phase 1 is faulted on the member's reply: its request rides the
// leader's attestation offer, and a failed first handshake is never retried,
// which no rescue could survive.
var (
	soakSendKinds = []uint16{KindPairBatchRequest, KindLRRequest}
	soakRecvKinds = []uint16{KindCountsReply, KindPairBatchReply, KindLRReply}
)

func randomPoint(rng *rand.Rand, kinds []transport.FaultKind) transport.FaultPoint {
	p := transport.FaultPoint{Kind: kinds[rng.Intn(len(kinds))]}
	if rng.Intn(2) == 0 {
		p.Op = transport.FaultSend
		p.MsgKind = soakSendKinds[rng.Intn(len(soakSendKinds))]
	} else {
		p.Op = transport.FaultRecv
		p.MsgKind = soakRecvKinds[rng.Intn(len(soakRecvKinds))]
	}
	return p
}

// soakTransport injects one random recoverable transport fault with retries
// enabled: the run must rescue itself — full baseline, nobody excluded.
func soakTransport(t *testing.T, f *chaosFixture, rng *rand.Rand) error {
	point := randomPoint(rng, []transport.FaultKind{transport.FaultError, transport.FaultClose, transport.FaultDrop})
	inj := &chaosInjector{point: point}
	policy := core.CollusionPolicy{}
	res, err := guardSoak(func() (*Result, error) {
		return runElection(context.Background(), f.shards, f.cohort.Reference, core.DefaultConfig(), policy, RunOptions{
			RPCTimeout: chaosRPCTimeout,
			MaxRetries: 3,
			Backoff:    5 * time.Millisecond,
		}, pipeChannel, chaosHooks{inject: inj.inject})
	})
	if err != nil {
		return fmt.Errorf("%s: run did not recover: %w", point, err)
	}
	if !inj.fired() {
		return fmt.Errorf("%s: fault never fired", point)
	}
	if len(res.Excluded) != 0 {
		return fmt.Errorf("%s: recovered run excluded %v", point, res.Excluded)
	}
	want := f.baseline(t, -1, policy)
	if !res.Report.Selection.Equal(want.Selection) {
		return fmt.Errorf("%s: selection %v != baseline %v", point, res.Report.Selection, want.Selection)
	}
	return nil
}

// soakByzantine makes one member lie in a random way — a semantic
// perturbation in one of the three phases, or in-flight ciphertext tampering
// — and demands containment: exactly that member excluded, a blame record
// when the lie is attributable, and the survivor-baseline selection.
func soakByzantine(t *testing.T, f *chaosFixture, rng *rand.Rand, tally *soakTally) error {
	mode := rng.Intn(4)
	policy := core.CollusionPolicy{}
	var (
		inj   *chaosInjector
		prep  *byzantinePrep
		label string
		phase string
	)
	switch mode {
	case 0:
		prep = &byzantinePrep{mode: core.ByzantineCountsOverflow, n: 1}
		label, phase = "counts-overflow", core.PhaseSummary
	case 1:
		prep = &byzantinePrep{mode: core.ByzantineJointCount, n: 1}
		label, phase = "joint-count", core.PhaseLD
	case 2:
		prep = &byzantinePrep{mode: core.ByzantinePatternFlip, n: 1}
		label, phase = "pattern-flip", core.PhaseLR
		policy = core.CollusionPolicy{F: 1}
	case 3:
		inj = &chaosInjector{point: transport.FaultPoint{
			Op:      transport.FaultRecv,
			Kind:    transport.FaultCorrupt,
			MsgKind: soakRecvKinds[rng.Intn(len(soakRecvKinds))],
		}}
		label = "wire-tamper"
	}
	var hooks chaosHooks
	if inj != nil {
		hooks.inject = inj.inject
	}
	if prep != nil {
		hooks.prep = prep.prep
	}
	res, err := guardSoak(func() (*Result, error) {
		return runElection(context.Background(), f.shards, f.cohort.Reference, core.DefaultConfig(), policy, RunOptions{
			RPCTimeout: chaosRPCTimeout,
			MaxRetries: 2,
			Backoff:    5 * time.Millisecond,
			MinQuorum:  2,
			Byzantine:  true,
		}, pipeChannel, hooks)
	})
	if err != nil {
		return fmt.Errorf("%s: run did not contain the fault: %w", label, err)
	}
	var bad int
	if prep != nil {
		bad = prep.shard()
	} else {
		if !inj.fired() {
			return fmt.Errorf("%s: fault never fired", label)
		}
		bad = inj.target
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != bad {
		return fmt.Errorf("%s: excluded %v, want exactly shard %d", label, res.Excluded, bad)
	}
	if len(res.Rejoined) != 0 {
		return fmt.Errorf("%s: quarantined member rejoined: %v", label, res.Rejoined)
	}
	tally.quarantined++
	tally.blamed += len(res.Report.Blamed)
	if phase != "" {
		badName := fmt.Sprintf("gdo-%d", bad)
		found := false
		for _, b := range res.Report.Blamed {
			if b.Member == badName && b.Kind == core.BlameInvalidPayload && b.Phase == phase {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("%s: blames %+v lack {%s, invalid-payload, %s}", label, res.Report.Blamed, badName, phase)
		}
	}
	want := f.baseline(t, bad, policy)
	if !res.Report.Selection.Equal(want.Selection) {
		return fmt.Errorf("%s: selection %v != survivor baseline %v", label, res.Report.Selection, want.Selection)
	}
	return nil
}

// soakStorage kills the first elected leader right after a random checkpoint
// boundary, then flips a random bit in the CRC of the checkpoint file's last
// frame before the successor loads it: the store must fall back to the
// boundary before that frame, and the resumed run must still produce the
// fault-free baseline while reporting the recovery.
func soakStorage(t *testing.T, f *chaosFixture, rng *rand.Rand) error {
	killAt := 2 + rng.Intn(2) // after Phase 2 or after the (single) Phase 3 combination
	dir := t.TempDir()
	store, err := checkpoint.NewFileStore(dir)
	if err != nil {
		return fmt.Errorf("NewFileStore: %w", err)
	}
	flip := rng.Intn(4 * 8) // a bit of the last frame's CRC trailer
	var mu sync.Mutex
	attempts := 0
	hook := func(attempt, leaderIdx int, cancel context.CancelFunc, st checkpoint.Store) checkpoint.Store {
		mu.Lock()
		defer mu.Unlock()
		attempts++
		if attempt == 0 {
			return &killStore{inner: st, cancel: cancel, killAt: killAt}
		}
		// The bit rot lands between the crash and the successor's load.
		path := filepath.Join(dir, "assessment.ckpt")
		b, err := os.ReadFile(path)
		if err == nil {
			b[len(b)-4+flip/8] ^= 1 << (flip % 8)
			err = os.WriteFile(path, b, 0o600)
		}
		if err != nil {
			t.Errorf("corrupting snapshot: %v", err)
		}
		return st
	}
	policy := core.CollusionPolicy{}
	res, err := guardSoak(func() (*Result, error) {
		return runElection(context.Background(), f.shards, f.cohort.Reference, core.DefaultConfig(), policy, RunOptions{
			RPCTimeout:  chaosRPCTimeout,
			MaxRetries:  1,
			Backoff:     5 * time.Millisecond,
			Checkpoints: store,
		}, pipeChannel, chaosHooks{failover: hook})
	})
	if err != nil {
		return fmt.Errorf("killAt=%d: failover run failed: %w", killAt, err)
	}
	mu.Lock()
	got := attempts
	mu.Unlock()
	if got != 2 {
		return fmt.Errorf("killAt=%d: ran %d attempts, want 2", killAt, got)
	}
	if len(res.FormerLeaders) != 1 {
		return fmt.Errorf("killAt=%d: FormerLeaders %v, want one dead leader", killAt, res.FormerLeaders)
	}
	if !res.Report.Resumed {
		return fmt.Errorf("killAt=%d: successor did not resume from a checkpoint", killAt)
	}
	if !res.Report.CorruptionRecovered {
		return fmt.Errorf("killAt=%d: resume did not report the corruption recovery", killAt)
	}
	if len(res.Excluded) != 0 {
		return fmt.Errorf("killAt=%d: excluded %v", killAt, res.Excluded)
	}
	want := f.baseline(t, -1, policy)
	if !res.Report.Selection.Equal(want.Selection) {
		return fmt.Errorf("killAt=%d: selection %v != baseline %v", killAt, res.Report.Selection, want.Selection)
	}
	return nil
}

// soakRejoin crashes one member with retries disabled, lets it rejoin at the
// next phase boundary, and demands the undisturbed baseline with the member
// back in the quorum.
func soakRejoin(t *testing.T, f *chaosFixture, rng *rand.Rand, tally *soakTally) error {
	point := randomPoint(rng, []transport.FaultKind{transport.FaultError, transport.FaultClose, transport.FaultDrop})
	inj := &chaosInjector{point: point}
	policy := core.CollusionPolicy{}
	res, err := guardSoak(func() (*Result, error) {
		return runElection(context.Background(), f.shards, f.cohort.Reference, core.DefaultConfig(), policy, RunOptions{
			RPCTimeout:  chaosRPCTimeout,
			MaxRetries:  0,
			MinQuorum:   2,
			Byzantine:   true,
			AllowRejoin: true,
		}, pipeChannel, chaosHooks{inject: inj.inject})
	})
	if err != nil {
		return fmt.Errorf("%s: run did not recover through rejoin: %w", point, err)
	}
	if !inj.fired() {
		return fmt.Errorf("%s: fault never fired", point)
	}
	if len(res.Excluded) != 0 {
		return fmt.Errorf("%s: rejoined member still excluded: %v", point, res.Excluded)
	}
	if len(res.Rejoined) != 1 || res.Rejoined[0] != inj.target {
		return fmt.Errorf("%s: rejoined %v, want exactly the crashed shard %d", point, res.Rejoined, inj.target)
	}
	tally.rejoined++
	want := f.baseline(t, -1, policy)
	if !res.Report.Selection.Equal(want.Selection) {
		return fmt.Errorf("%s: selection %v != full baseline %v", point, res.Report.Selection, want.Selection)
	}
	return nil
}

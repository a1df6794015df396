package core

import (
	"errors"
	"fmt"
	"sort"

	"gendpr/internal/enclave"
	"gendpr/internal/genome"
)

// Protocol phase names used in member-failure errors and reports.
const (
	PhaseSummary = "summary collection"
	PhaseMAF     = "MAF (phase 1)"
	PhaseLD      = "LD (phase 2)"
	PhaseLR      = "LR-test (phase 3)"
)

// ErrMemberFailed marks a member as unreachable after the transport layer
// exhausted its retry budget. Providers wrap their terminal transport errors
// with it. Without Resilience.Byzantine, the resilient runner treats any
// other member-attributed error (protocol violations, tampered payloads) as
// run-fatal, because silently excluding a member that misbehaves — rather
// than one that merely disappeared — would mask an attack; with it, such
// members are quarantined with an attributing blame record instead.
var ErrMemberFailed = errors.New("member unreachable")

// ErrQuorumLost is returned when excluding failed members would leave fewer
// survivors than the configured quorum.
var ErrQuorumLost = errors.New("core: quorum lost")

// MemberError attributes a failure to one member and the protocol phase
// where it surfaced. The assessment wraps every member-side error in one, so
// callers can tell which GDO broke and where without parsing messages.
type MemberError struct {
	// Member is the index within the member slice of the failing run.
	Member int
	// Phase is the protocol phase where the failure surfaced.
	Phase string
	// Err is the underlying cause.
	Err error
}

func (e *MemberError) Error() string {
	return fmt.Sprintf("core: member %d failed in %s: %v", e.Member, e.Phase, e.Err)
}

func (e *MemberError) Unwrap() error { return e.Err }

// memberErr builds a MemberError for one member and phase.
func memberErr(member int, phase string, format string, args ...any) *MemberError {
	return &MemberError{Member: member, Phase: phase, Err: fmt.Errorf(format, args...)}
}

// Resilience configures quorum-based graceful degradation and, optionally,
// Byzantine quarantine and member rejoin (AssessmentOptions.Resilience).
type Resilience struct {
	// MinQuorum is the minimum number of members that must survive for the
	// assessment to continue after exclusions. Zero (or negative) disables
	// degradation entirely: any member failure aborts the run, matching the
	// base protocol.
	MinQuorum int
	// Byzantine enables misbehavior quarantine: a member caught equivocating
	// or delivering an invalid payload is excluded with a structured blame
	// record and the assessment re-runs over the survivors, instead of the
	// whole run aborting. Detection also turns on summary audits when a
	// restarted leader resumes from a checkpoint.
	Byzantine bool
	// AllowRejoin permits a crash-failed member (never one blamed for
	// misbehavior) one attempt to re-attest and rejoin at the next restart
	// boundary, after passing a summary audit against its pre-exclusion
	// answers.
	AllowRejoin bool
	// OnTransition, when set, observes membership health transitions: event
	// is "excluded", "byzantine", or "rejoined", with the member's name (or
	// formatted index) and the phase the evidence surfaced in.
	OnTransition func(member, event, phase string)
}

// Enabled reports whether degradation is configured.
func (r Resilience) Enabled() bool { return r.MinQuorum > 0 }

// FailedMembers walks an assessment error and returns the member indices
// whose failures are degradable (wrapped in ErrMemberFailed), sorted. An
// empty result means the error is run-fatal.
func FailedMembers(err error) []int {
	seen := make(map[int]bool)
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if me, ok := e.(*MemberError); ok {
			if errors.Is(me.Err, ErrMemberFailed) {
				seen[me.Member] = true
			}
			return
		}
		switch x := e.(type) {
		case interface{ Unwrap() error }:
			walk(x.Unwrap())
		case interface{ Unwrap() []error }:
			for _, sub := range x.Unwrap() {
				walk(sub)
			}
		}
	}
	walk(err)
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// byzantineFault is one member-attributed misbehavior extracted from an
// assessment error: enough evidence to quarantine and blame the member.
type byzantineFault struct {
	slot            int
	phase           string
	query           string
	kind            string
	prior, observed []byte
}

// byzantineFaults walks an assessment error and returns the quarantinable
// misbehavior evidence — equivocations and invalid payloads — one fault per
// implicated slot, sorted. Like FailedMembers it stops at the MemberError
// layer, so nested attributions are never double-counted.
func byzantineFaults(err error) []byzantineFault {
	var out []byzantineFault
	seen := make(map[int]bool)
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if me, ok := e.(*MemberError); ok {
			if seen[me.Member] {
				return
			}
			var eq *EquivocationError
			switch {
			case errors.As(me.Err, &eq):
				seen[me.Member] = true
				out = append(out, byzantineFault{
					slot: me.Member, phase: me.Phase, query: eq.Query,
					kind: BlameEquivocation, prior: eq.Prior, observed: eq.Observed,
				})
			case errors.Is(me.Err, ErrInvalidPayload):
				seen[me.Member] = true
				// The validation message names the violated invariant (and
				// only the invariant) — it doubles as the query description.
				out = append(out, byzantineFault{
					slot: me.Member, phase: me.Phase, query: me.Err.Error(),
					kind: BlameInvalidPayload,
				})
			}
			return
		}
		switch x := e.(type) {
		case interface{ Unwrap() error }:
			walk(x.Unwrap())
		case interface{ Unwrap() []error }:
			for _, sub := range x.Unwrap() {
				walk(sub)
			}
		}
	}
	walk(err)
	sort.Slice(out, func(i, j int) bool { return out[i].slot < out[j].slot })
	return out
}

// memberPhases maps each member slot attributed in err to the phase its
// first-seen failure surfaced in (for health-transition events).
func memberPhases(err error) map[int]string {
	phases := make(map[int]string)
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if me, ok := e.(*MemberError); ok {
			if _, ok := phases[me.Member]; !ok {
				phases[me.Member] = me.Phase
			}
			return
		}
		switch x := e.(type) {
		case interface{ Unwrap() error }:
			walk(x.Unwrap())
		case interface{ Unwrap() []error }:
			for _, sub := range x.Unwrap() {
				walk(sub)
			}
		}
	}
	walk(err)
	return phases
}

// mergeBlames appends the new records to base, dropping duplicates by
// (member, phase, query, kind) — a blame replayed from a checkpoint seed and
// re-raised by the runner must land in the report once.
func mergeBlames(base, add []Blame) []Blame {
	type key struct{ member, phase, query, kind string }
	seen := make(map[key]bool, len(base))
	for _, b := range base {
		seen[key{b.Member, b.Phase, b.Query, b.Kind}] = true
	}
	out := base
	for _, b := range add {
		k := key{b.Member, b.Phase, b.Query, b.Kind}
		if !seen[k] {
			seen[k] = true
			out = append(out, b)
		}
	}
	return out
}

// runResilient is RunAssessment with quorum-based degradation: when a member
// is declared failed (its provider reports ErrMemberFailed) and at least
// opts.Resilience.MinQuorum members survive, the assessment restarts over the
// surviving providers and the returned Report lists the excluded members.
// Survivor responses are memoized across restarts, so completed phases replay
// from cache rather than re-querying the federation. Each restart attempt
// passes the surviving providers' names through, so a checkpoint written
// before an exclusion (whose fingerprint covers the full name set) is ignored
// by the shrunken attempt rather than mis-seeded.
//
// Degrading to a subset is privacy-conservative: every phase already
// evaluates honest subsets of the membership under collusion tolerance, and a
// release deemed safe for fewer contributors reveals no more when the
// excluded shards never contribute. The collusion policy is re-validated
// against the shrunken federation and the run aborts if it can no longer be
// satisfied.
func runResilient(members []Provider, reference *genome.Matrix, cfg Config, policy CollusionPolicy, leaderEnclave *enclave.Enclave, opts AssessmentOptions) (*Report, error) {
	res := opts.Resilience
	if opts.Checkpoints != nil && len(opts.ProviderNames) != len(members) {
		return nil, fmt.Errorf("core: %d provider names for %d members (checkpointing needs stable identities)", len(opts.ProviderNames), len(members))
	}
	// Wrap once, outside the per-attempt wrapping runOnce does, so the
	// caches survive restarts: a survivor's counts, pair statistics, and
	// population size replay from memory on the next attempt.
	stable := make([]*cachedProvider, len(members))
	for i, m := range members {
		stable[i] = newCachedProvider(m)
	}
	alive := make([]int, len(members))
	for i := range alive {
		alive[i] = i
	}
	var excluded, rejoined []int
	var blames []Blame
	// exclusionKind records why each excluded member is out: a blame kind for
	// quarantined members (permanently barred), "" for crash failures (one
	// rejoin attempt each when AllowRejoin is set).
	exclusionKind := make(map[int]string)
	rejoinSpent := make(map[int]bool)

	memberName := func(id int) string {
		if len(opts.ProviderNames) == len(members) {
			return opts.ProviderNames[id]
		}
		return fmt.Sprintf("member %d", id)
	}
	emit := func(id int, event, phase string) {
		if res.OnTransition != nil {
			res.OnTransition(memberName(id), event, phase)
		}
	}

	for {
		current := make([]Provider, len(alive))
		for slot, id := range alive {
			current[slot] = stable[id]
		}
		attempt := opts
		attempt.blamed = blames
		attempt.auditSummaries = res.Byzantine
		if len(opts.ProviderNames) == len(members) {
			names := make([]string, len(alive))
			for slot, id := range alive {
				names[slot] = opts.ProviderNames[id]
			}
			attempt.ProviderNames = names
		}
		report, err := runOnce(current, reference, cfg, policy, leaderEnclave, attempt)
		if err == nil {
			report.Excluded = append([]int(nil), excluded...)
			report.Blamed = mergeBlames(report.Blamed, blames)
			report.Rejoined = append([]int(nil), rejoined...)
			return report, nil
		}
		if opts.Context != nil && opts.Context.Err() != nil {
			// Cancellation is never a member failure; surface it directly.
			return nil, opts.Context.Err()
		}
		var byz []byzantineFault
		if res.Byzantine {
			byz = byzantineFaults(err)
		}
		byzSlots := make(map[int]bool, len(byz))
		for _, f := range byz {
			byzSlots[f.slot] = true
		}
		failed := FailedMembers(err)
		// A slot implicated both ways is quarantined, not merely dropped.
		crashed := failed[:0]
		for _, slot := range failed {
			if !byzSlots[slot] {
				crashed = append(crashed, slot)
			}
		}
		if len(crashed) == 0 && len(byz) == 0 {
			return nil, err
		}
		phases := memberPhases(err)

		// Map slot indices of this attempt back to original member identities
		// and drop them from the roster.
		drop := make(map[int]bool, len(crashed)+len(byz))
		for _, f := range byz {
			id := alive[f.slot]
			drop[f.slot] = true
			exclusionKind[id] = f.kind
			blames = append(blames, Blame{
				Member: memberName(id), Phase: f.phase, Query: f.query,
				Kind: f.kind, Prior: f.prior, Observed: f.observed,
			})
			emit(id, "byzantine", f.phase)
		}
		for _, slot := range crashed {
			id := alive[slot]
			drop[slot] = true
			exclusionKind[id] = ""
			emit(id, "excluded", phases[slot])
		}
		next := alive[:0]
		for slot, id := range alive {
			if drop[slot] {
				excluded = append(excluded, id)
				rejoined = removeID(rejoined, id)
			} else {
				next = append(next, id)
			}
		}
		alive = next
		sort.Ints(excluded)

		// Rejoin pass: the restart is a phase boundary, so crash-failed
		// members with rejoin budget left may re-attest now. Re-admission
		// requires the summary audit to pass — a member that changed its
		// story across the gap is upgraded to a quarantine instead.
		if res.AllowRejoin {
			still := excluded[:0]
			for _, id := range excluded {
				if exclusionKind[id] != "" || rejoinSpent[id] {
					still = append(still, id)
					continue
				}
				rejoinSpent[id] = true
				rerr := stable[id].rejoin()
				if rerr == nil {
					alive = append(alive, id)
					rejoined = append(rejoined, id)
					emit(id, "rejoined", PhaseSummary)
					continue
				}
				still = append(still, id)
				var eq *EquivocationError
				if errors.As(rerr, &eq) {
					exclusionKind[id] = BlameEquivocation
					blames = append(blames, Blame{
						Member: memberName(id), Phase: eq.Phase, Query: eq.Query,
						Kind: BlameEquivocation, Prior: eq.Prior, Observed: eq.Observed,
					})
					emit(id, "byzantine", eq.Phase)
				}
			}
			excluded = still
			sort.Ints(alive)
			sort.Ints(rejoined)
		}

		survivors := len(alive)
		if survivors < res.MinQuorum {
			return nil, fmt.Errorf("%w: %d survivors after excluding %d member(s), need %d: %v",
				ErrQuorumLost, survivors, len(excluded), res.MinQuorum, err)
		}
		if perr := policy.Validate(survivors); perr != nil {
			return nil, fmt.Errorf("core: collusion policy unsatisfiable over %d survivors: %w (member failure: %v)", survivors, perr, err)
		}
	}
}

// removeID returns s without id, preserving order.
func removeID(s []int, id int) []int {
	out := s[:0]
	for _, v := range s {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

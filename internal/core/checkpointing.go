package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"gendpr/internal/checkpoint"
)

// AssessmentOptions extends RunAssessment with cancellation, durability and
// degradation. The zero value reproduces the base protocol exactly: no
// context checks, no checkpoint reads or writes, and any member failure
// aborts the run.
type AssessmentOptions struct {
	// Context, when non-nil, cancels the assessment at the next phase
	// boundary. The error returned is ctx.Err().
	Context context.Context
	// ProviderNames are stable identity names, aligned with the member
	// slice. Checkpoints index per-provider state by name, not slot, so a
	// re-elected leader that enumerates providers in a different order can
	// still claim them. Required whenever Checkpoints is set.
	ProviderNames []string
	// Checkpoints, when non-nil, persists phase boundaries to the store and
	// seeds the run from a compatible existing checkpoint.
	Checkpoints checkpoint.Store
	// RetainCheckpoints keeps the final snapshot in the store after a
	// successful run instead of clearing it. A later run with the same
	// fingerprint then recomputes Phase 1 from the snapshot's counts and
	// replays every later phase from it — the reuse contract of the long-lived assessment service, where identical
	// requests should not re-drive the federation. One-shot runs leave this
	// false so a finished assessment cannot be "resumed".
	RetainCheckpoints bool
	// Resilience, when it enables degradation (MinQuorum > 0), excludes
	// failed members and restarts the run over the survivors.
	Resilience Resilience

	// blamed carries the resilient runner's accumulated blame records into
	// the attempt so they persist at every checkpoint boundary and survive a
	// leader failover.
	blamed []Blame
	// auditSummaries challenges every auditable member to reproduce its
	// checkpointed summary when the run resumes from a seed — the resumed
	// leader's equivocation probe.
	auditSummaries bool
}

// Fingerprint binds a checkpoint to one run shape: every input that changes
// the assessment's output — configuration cutoffs and LR parameters, the
// collusion policy, the provider name set, and the reference dimensions —
// contributes to the hash. The leader's core count is deliberately not an
// input (it changes how Phase 3's chains are scheduled, never results), so a
// leader on one core can resume a checkpoint written on four.
func Fingerprint(cfg Config, policy CollusionPolicy, names []string, refN, refL int) []byte {
	h := sha256.New()
	writeF := func(f float64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	writeI := func(v int64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	h.Write([]byte("gendpr-assessment-v1\x00"))
	writeF(cfg.MAFCutoff)
	writeF(cfg.LDCutoff)
	writeF(cfg.LR.Alpha)
	writeF(cfg.LR.PowerThreshold)
	writeI(boolBit(cfg.LR.Oblivious))
	writeI(boolBit(cfg.PaperChiSquare))
	writeI(int64(policy.F))
	writeI(boolBit(policy.Conservative))
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	writeI(int64(len(sorted)))
	for _, n := range sorted {
		writeI(int64(len(n)))
		h.Write([]byte(n))
	}
	writeI(int64(refN))
	writeI(int64(refL))
	return h.Sum(nil)
}

func boolBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ckState is the run's checkpointing harness: the loaded seed (remapped onto
// the current provider order) and the state under construction.
type ckState struct {
	store checkpoint.Store
	names []string
	fp    []byte
	// retain keeps the final snapshot after success (see
	// AssessmentOptions.RetainCheckpoints).
	retain bool

	// seed is the remapped prior state; nil when starting fresh.
	seed *checkpoint.State
	// seedCombos maps a combination's sorted-name key to its completed
	// record in the seed.
	seedCombos map[string]checkpoint.Combination
	// recovered reports that the store fell back past a corrupt or missing
	// current snapshot to serve the adopted seed.
	recovered bool
	// seedBlames are the blame records the adopted seed carried: quarantines
	// from before the failover, which the resumed run must not forget.
	seedBlames []Blame

	mu sync.Mutex
	ck checkpoint.State
}

// nameKey canonicalizes a provider name set ("\x00" never appears in ids).
func nameKey(names []string) string {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	return strings.Join(sorted, "\x00")
}

// newCkState loads and remaps a compatible checkpoint. Incompatible or
// corrupt checkpoints are ignored (the run starts fresh and overwrites them);
// only store I/O that cannot be distinguished from data loss is an error.
func newCkState(store checkpoint.Store, names []string, fp []byte, g int, policy CollusionPolicy) (*ckState, error) {
	cs := &ckState{store: store, names: names, fp: fp}
	cs.ck = checkpoint.State{Fingerprint: fp, Providers: names}

	prior, err := store.Load()
	if errors.Is(err, checkpoint.ErrNotFound) || errors.Is(err, checkpoint.ErrCorrupt) || errors.Is(err, checkpoint.ErrVersion) {
		return cs, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: load checkpoint: %w", err)
	}
	if !bytes.Equal(prior.Fingerprint, fp) {
		// A different run shape (changed config, different survivor set
		// after an exclusion restart): not resumable.
		return cs, nil
	}
	remapped, ok := remapState(prior, names, g, policy)
	if !ok {
		return cs, nil
	}
	cs.seed = remapped
	cs.seedCombos = make(map[string]checkpoint.Combination, len(remapped.Combinations))
	for _, c := range remapped.Combinations {
		cs.seedCombos[nameKey(c.Members)] = c
	}
	cs.seedBlames = blamesFromRecords(remapped.Blamed)
	// Only a run that actually adopts the seed reports the store's fallback:
	// the recovery marker describes how *this* resume obtained its state.
	if rec, ok := store.(checkpoint.Recoverer); ok {
		if _, r := rec.RecoveredCorruption(); r {
			cs.recovered = true
		}
	}
	return cs, nil
}

// blameRecords converts runner blame to the checkpoint codec's record type.
func blameRecords(bs []Blame) []checkpoint.BlameRecord {
	if len(bs) == 0 {
		return nil
	}
	out := make([]checkpoint.BlameRecord, len(bs))
	for i, b := range bs {
		out[i] = checkpoint.BlameRecord{Member: b.Member, Phase: b.Phase, Query: b.Query, Kind: b.Kind, Prior: b.Prior, Observed: b.Observed}
	}
	return out
}

// blamesFromRecords is the inverse of blameRecords.
func blamesFromRecords(rs []checkpoint.BlameRecord) []Blame {
	if len(rs) == 0 {
		return nil
	}
	out := make([]Blame, len(rs))
	for i, r := range rs {
		out[i] = Blame{Member: r.Member, Phase: r.Phase, Query: r.Query, Kind: r.Kind, Prior: r.Prior, Observed: r.Observed}
	}
	return out
}

// adoptBlames merges the runner-carried and seed-carried blame records into
// the state under construction, so every subsequent boundary save persists
// the full quarantine history across leader failovers.
func (cs *ckState) adoptBlames(blamed []Blame) {
	if cs == nil {
		return
	}
	merged := mergeBlames(append([]Blame(nil), cs.seedBlames...), blamed)
	cs.mu.Lock()
	cs.ck.Blamed = blameRecords(merged)
	cs.mu.Unlock()
}

// allBlames returns the blame records the run carries (seed and current).
func (cs *ckState) allBlames() []Blame {
	if cs == nil {
		return nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return blamesFromRecords(cs.ck.Blamed)
}

// recoveredCorruption reports whether the adopted seed came from a storage
// fallback.
func (cs *ckState) recoveredCorruption() bool { return cs != nil && cs.recovered }

// remapState reorders a prior state's per-provider arrays onto the current
// provider order (matching by identity name) and its per-combination L″
// (PerLD) onto the current combination enumeration. The fingerprint already
// guarantees the name sets are equal.
func remapState(prior *checkpoint.State, names []string, g int, policy CollusionPolicy) (*checkpoint.State, bool) {
	if len(prior.Providers) != g || len(names) != g {
		return nil, false
	}
	oldSlot := make(map[string]int, g)
	for i, n := range prior.Providers {
		oldSlot[n] = i
	}
	perm := make([]int, g) // perm[newSlot] = oldSlot
	for i, n := range names {
		j, ok := oldSlot[n]
		if !ok {
			return nil, false
		}
		perm[i] = j
	}

	out := &checkpoint.State{
		Fingerprint: prior.Fingerprint,
		Providers:   names,
		Stage:       prior.Stage,
	}
	out.Counts = make([][]int64, g)
	out.CaseNs = make([]int64, g)
	for i := range names {
		if perm[i] >= len(prior.Counts) {
			return nil, false
		}
		out.Counts[i] = prior.Counts[perm[i]]
		out.CaseNs[i] = prior.CaseNs[perm[i]]
	}

	// Per-combination selections are positional in the saving leader's
	// enumeration, which is the same slot enumeration over its provider
	// order; translate via the name sets each slot subset stands for.
	if len(prior.PerLD) > 0 {
		subsets, err := evaluationSubsets(g, policy)
		if err != nil || len(prior.PerLD) != len(subsets) {
			return nil, false
		}
		oldByKey := make(map[string]int, len(subsets))
		for c, subset := range subsets {
			oldByKey[nameKey(subsetNames(prior.Providers, subset))] = c
		}
		out.PerLD = make([][]int, len(subsets))
		for c, subset := range subsets {
			oc, ok := oldByKey[nameKey(subsetNames(names, subset))]
			if !ok {
				return nil, false
			}
			out.PerLD[c] = prior.PerLD[oc]
		}
	}
	out.Combinations = prior.Combinations
	// Blame records are keyed by member name, not slot — no remap needed.
	out.Blamed = prior.Blamed
	return out, true
}

func subsetNames(names []string, subset []int) []string {
	out := make([]string, len(subset))
	for i, s := range subset {
		if s < 0 || s >= len(names) {
			return nil
		}
		out[i] = names[s]
	}
	return out
}

// recordSummaries records the collected summaries into the state under
// construction (no persist: the first boundary save is after Phase 1).
func (cs *ckState) recordSummaries(counts [][]int64, caseNs []int64) {
	if cs == nil {
		return
	}
	cs.mu.Lock()
	cs.ck.Counts = counts
	cs.ck.CaseNs = caseNs
	cs.mu.Unlock()
}

// recordMAF records the Phase 1 boundary. Its outputs are not part of it: a
// resume recomputes them from the summaries. It persists only when the seed
// does not already cover the boundary, so a resumed run pays no base write
// for it and never replaces a seed at a later stage with this one.
func (cs *ckState) recordMAF() error {
	if cs == nil {
		return nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.ck.Stage = checkpoint.StageMAF
	if cs.seed != nil && cs.seed.Stage >= checkpoint.StageMAF {
		return nil
	}
	return cs.saveLocked()
}

// recordLD records the Phase 2 boundary: each combination's L″, whose
// intersection is the run's. The pair statistics the scan aggregated are not
// part of it: a resume at StageLD skips Phase 2 entirely, and Phase 3 never
// reads a pair.
func (cs *ckState) recordLD(perLD [][]int, persist bool) error {
	if cs == nil {
		return nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.ck.Stage = checkpoint.StageLD
	cs.ck.PerLD = perLD
	if !persist {
		return nil
	}
	return cs.saveLocked()
}

// recordCombination records one completed Phase 3 combination. order is the
// canonical admission order, retained for the full-membership combination
// only (every other combination shares it). Only this derived ranking is
// persisted — never the merged LR-matrix it came from.
func (cs *ckState) recordCombination(members []string, safe []int, power float64, order []int, persist bool) error {
	if cs == nil {
		return nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.ck.Combinations = append(cs.ck.Combinations, checkpoint.Combination{
		Members: members,
		Safe:    safe,
		Power:   power,
		Order:   order,
	})
	if !persist {
		return nil
	}
	return cs.saveLocked()
}

// saveLocked persists the state under construction; callers hold cs.mu.
// A failed save is run-fatal: continuing would break the durability the
// caller asked for silently.
func (cs *ckState) saveLocked() error {
	if err := cs.store.Save(&cs.ck); err != nil {
		return fmt.Errorf("core: save checkpoint: %w", err)
	}
	return nil
}

// finish clears the store after a successful run so a completed assessment
// cannot be "resumed". Clear errors are ignored: the result is already
// computed and correct, and a stale checkpoint is fingerprint-guarded anyway.
// Under RetainCheckpoints the snapshot is deliberately kept instead, so an
// identical later request replays from it.
func (cs *ckState) finish() {
	if cs == nil || cs.retain {
		return
	}
	_ = cs.store.Clear()
}

// seededSummaries returns the seed's summary data, if any.
func (cs *ckState) seededSummaries() ([][]int64, []int64, bool) {
	if cs == nil || cs.seed == nil {
		return nil, nil, false
	}
	return cs.seed.Counts, cs.seed.CaseNs, true
}

// seededLD returns the seed's per-combination L″ when the stage covers it.
func (cs *ckState) seededLD() ([][]int, bool) {
	if cs == nil || cs.seed == nil || cs.seed.Stage < checkpoint.StageLD {
		return nil, false
	}
	return cs.seed.PerLD, true
}

// seededCombination returns a completed Phase 3 record for the given member
// name set, if the seed holds one.
func (cs *ckState) seededCombination(members []string) (checkpoint.Combination, bool) {
	if cs == nil || cs.seedCombos == nil {
		return checkpoint.Combination{}, false
	}
	c, ok := cs.seedCombos[nameKey(members)]
	return c, ok
}

// seedSummaryCaches primes the providers' summary caches from a checkpoint.
func seedSummaryCaches(members []*cachedProvider, counts [][]int64, caseNs []int64) {
	for i, m := range members {
		m.seedSummary(counts[i], caseNs[i])
	}
}

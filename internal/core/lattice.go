package core

import (
	"errors"
	"fmt"
	"sync"

	"gendpr/internal/combin"
	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
)

// This file builds the combination lattice: the evaluation structure that
// turns the per-subset phases of collusion-tolerant GenDPR from independent
// from-scratch computations into incremental walks. The subsets of one
// f-block are visited in revolving-door Gray order, where consecutive subsets
// differ by a single exchanged member, so per-subset state — case-count
// aggregates, pooled pair statistics, the merged per-individual bit-matrix —
// updates by one member's delta per step instead of being rebuilt. Results
// still land in the lexicographic slots the report and the checkpoints use:
// every Gray position carries its lexicographic rank.

// latticePlan is the precomputed evaluation order for one assessment: the
// full-membership chain first (slot 0, the canonical anchor), then the Gray
// chains covering every collusion combination the policy demands.
type latticePlan struct {
	g      int
	count  int // total subsets, = len(evaluationSubsets(...))
	chains []latticeChain
}

// latticeChain is a contiguous run of the Gray sequence: a materialized head
// subset plus one (removed, added) exchange per further step. Chains are the
// unit of scheduling — a chain is evaluated by one worker, incrementally, and
// idle workers steal whole unstarted chains.
type latticeChain struct {
	head  []int // first subset, sorted ascending
	slots []int // lexicographic result slot per position; slots[0] is head's
	rems  []int // exchange leaving before position i+1
	adds  []int // exchange entering before position i+1
}

// length returns the number of subsets the chain covers.
func (ch *latticeChain) length() int { return len(ch.slots) }

// walk visits the chain's subsets in order, maintaining the sorted subset
// incrementally. The first position reports rem = add = −1; the slice passed
// to fn is reused between positions.
func (ch *latticeChain) walk(fn func(pos, slot int, subset []int, rem, add int) error) error {
	sub := append([]int(nil), ch.head...)
	if err := fn(0, ch.slots[0], sub, -1, -1); err != nil {
		return err
	}
	for i := range ch.rems {
		applyExchange(sub, ch.rems[i], ch.adds[i])
		if err := fn(i+1, ch.slots[i+1], sub, ch.rems[i], ch.adds[i]); err != nil {
			return err
		}
	}
	return nil
}

// applyExchange replaces rem with add in the sorted subset, keeping it sorted.
func applyExchange(sub []int, rem, add int) {
	i := 0
	for sub[i] != rem {
		i++
	}
	for i+1 < len(sub) && sub[i+1] < add {
		sub[i] = sub[i+1]
		i++
	}
	for i > 0 && sub[i-1] > add {
		sub[i] = sub[i-1]
		i--
	}
	sub[i] = add
}

// buildLatticePlan lays out the evaluation chains for a federation of g
// members under the given policy. chainsPerBlock bounds how many chains each
// f-block is split into; the assessment passes its worker count, so Phase 3's
// stealing scheduler has a chain per worker to balance. Slot numbering
// matches evaluationSubsets: slot 0 is the full membership, then each
// f-block's subsets in lexicographic order.
func buildLatticePlan(g int, policy CollusionPolicy, chainsPerBlock int) (*latticePlan, error) {
	if chainsPerBlock < 1 {
		chainsPerBlock = 1
	}
	full := make([]int, g)
	for i := range full {
		full[i] = i
	}
	plan := &latticePlan{
		g:      g,
		count:  1,
		chains: []latticeChain{{head: full, slots: []int{0}}},
	}

	var fs []int
	switch {
	case policy.Conservative:
		for f := 1; f < g; f++ {
			fs = append(fs, f)
		}
	case policy.F > 0:
		fs = []int{policy.F}
	}

	offset := 1
	for _, f := range fs {
		k := g - f
		count64, err := combin.Binomial(g, k)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		count := int(count64)
		nChains := chainsPerBlock
		if nChains > count {
			nChains = count
		}
		// Ceil division keeps chains contiguous and within one of equal.
		chainLen := (count + nChains - 1) / nChains
		var cur *latticeChain
		pos := 0
		err = combin.RevolvingDoor(g, k, func(sub []int, rem, add int) error {
			rank, rerr := combin.LexRank(g, sub)
			if rerr != nil {
				return rerr
			}
			slot := offset + int(rank)
			if pos%chainLen == 0 {
				plan.chains = append(plan.chains, latticeChain{
					head:  append([]int(nil), sub...),
					slots: []int{slot},
				})
				cur = &plan.chains[len(plan.chains)-1]
			} else {
				cur.slots = append(cur.slots, slot)
				cur.rems = append(cur.rems, rem)
				cur.adds = append(cur.adds, add)
			}
			pos++
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		offset += count
		plan.count += count
	}
	return plan, nil
}

// walkInOrder evaluates fn over the chains one after another on the calling
// goroutine — how Phases 1 and 2 run. Their chains share the members' pair
// caches: concurrent LD scans would race cachedProvider.Prefetch's "already
// cached" filter and fetch some pairs twice, so what a run sends would depend
// on timing. A failed chain does not stop the next; the errors are joined.
// Phase 3's chains touch no pair cache and run on the work-stealing pool
// instead (phase3Chains).
func walkInOrder(chains []latticeChain, fn func(ch *latticeChain) error) error {
	var errs []error
	for i := range chains {
		if err := fn(&chains[i]); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// chainPairCache is the Phase 2 per-chain pooling cache. The pooled pair
// statistics of a combination decompose into the reference panel's
// contribution plus one contribution per presumed-honest member; along a Gray
// chain consecutive combinations share all but one member, so the cache keeps
// the decomposition per pair and a pooled query is one map lookup plus at
// most k integer adds. Member contributions come from the providers' own
// caches (warmed by the scan's batched prefetches); the chain cache
// exists so the hot LD loop pays the per-member map-and-mutex cost once per
// chain instead of once per combination.
//
// A chain is evaluated by exactly one worker, so the cache needs no locking.
type chainPairCache struct {
	r       *assessmentRun
	entries map[uint64]*chainPairEntry
	// slots is a direct-mapped index over entries keyed by the pair's second
	// column. The LD scan queries each survivor against the nearest retained
	// predecessor, so per combination a column appears in (at most) one pair,
	// and consecutive combinations mostly repeat it: the common case resolves
	// with one array probe instead of a 16-byte-key map lookup, which
	// profiling showed dominating the whole LD phase.
	slots []pairSlot
	bytes int64 // enclave bytes accounted for the entries
}

// pairSlot caches the entry for the pair (a−1, second column); a == 0 marks
// the slot empty.
type pairSlot struct {
	a int32
	e *chainPairEntry
}

type chainPairEntry struct {
	ref  genome.PairStats // reference-panel contribution
	per  []genome.PairStats
	have []bool
}

func newChainPairCache(r *assessmentRun) *chainPairCache {
	return &chainPairCache{
		r:       r,
		entries: make(map[uint64]*chainPairEntry),
		slots:   make([]pairSlot, len(r.refCounts)),
	}
}

// release frees the enclave memory accounted to the cache; call at chain end.
func (cc *chainPairCache) release() {
	cc.r.free(cc.bytes)
	cc.bytes = 0
}

// entry returns the decomposition entry for a pair, creating (and accounting)
// it on first touch.
func (cc *chainPairCache) entry(a, b int) (*chainPairEntry, error) {
	s := &cc.slots[b]
	if int(s.a) == a+1 {
		return s.e, nil
	}
	key := pairKey(a, b)
	if e, ok := cc.entries[key]; ok {
		s.a, s.e = int32(a+1), e
		return e, nil
	}
	r := cc.r
	g := len(r.members)
	ref, err := r.refPair(a, b)
	if err != nil {
		return nil, err
	}
	// The chain's own decomposition entry is additional leader memory, freed
	// when the chain completes.
	n := bytesPerPairStat * int64(g)
	if err := r.alloc(n); err != nil {
		return nil, err
	}
	cc.bytes += n
	e := &chainPairEntry{ref: ref, per: make([]genome.PairStats, g), have: make([]bool, g)}
	cc.entries[key] = e
	s.a, s.e = int32(a+1), e
	return e, nil
}

// pooledFunc returns the pooled pair-statistics function for one combination,
// backed by the chain cache. Member contributions are summed in subset order,
// so the pooled values are identical to the flat per-combination aggregation.
func (cc *chainPairCache) pooledFunc(subset []int) PairStatsFunc {
	r := cc.r
	return func(a, b int) (genome.PairStats, error) {
		e, err := cc.entry(a, b)
		if err != nil {
			return genome.PairStats{}, err
		}
		// Fill missing member contributions: almost always a provider-cache
		// hit after the prefetch; cold entries fetch in parallel.
		var missing []int
		for _, i := range subset {
			if e.have[i] {
				continue
			}
			if s, ok := r.members[i].cachedPair(a, b); ok {
				e.per[i], e.have[i] = s, true
				continue
			}
			missing = append(missing, i)
		}
		if len(missing) > 0 {
			errs := make([]error, len(missing))
			parts := make([]genome.PairStats, len(missing))
			var wg sync.WaitGroup
			for slot, i := range missing {
				slot, i := slot, i
				r.pool.Go(&wg, func() {
					s, err := r.members[i].PairStats(a, b)
					if err != nil {
						errs[slot] = memberErr(i, PhaseLD, "pair stats: %w", err)
						return
					}
					parts[slot] = s
				})
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return genome.PairStats{}, err
			}
			for slot, i := range missing {
				e.per[i], e.have[i] = parts[slot], true
			}
		}
		pooled := e.ref
		for _, i := range subset {
			pooled = pooled.Add(e.per[i])
		}
		return pooled, nil
	}
}

// patternSet holds the members' genotype bit-patterns for one Phase 3: each
// pattern is fetched (and validated, and accounted) once, the first time any
// evaluation chain needs that member. The underlying provider single-flights
// the fetch, so concurrent chains cannot duplicate member work.
type patternSet struct {
	r     *assessmentRun
	cols  []int
	mu    sync.Mutex
	pats  []*lrtest.BitMatrix
	bytes int64
}

func newPatternSet(r *assessmentRun, cols []int) *patternSet {
	return &patternSet{r: r, cols: cols, pats: make([]*lrtest.BitMatrix, len(r.members))}
}

// release frees the enclave memory held by the fetched patterns; call at
// phase end.
func (ps *patternSet) release() {
	ps.mu.Lock()
	bytes := ps.bytes
	ps.bytes = 0
	ps.mu.Unlock()
	ps.r.freeLR(bytes)
}

// rows is the row count of every member's pattern stacked: the case
// population of the full membership.
func (ps *patternSet) rows() int64 {
	var n int64
	for _, c := range ps.r.caseNs {
		n += c
	}
	return n
}

// get returns member i's pattern over the phase's columns.
func (ps *patternSet) get(i int) (*lrtest.BitMatrix, error) {
	ps.mu.Lock()
	if p := ps.pats[i]; p != nil {
		ps.mu.Unlock()
		return p, nil
	}
	ps.mu.Unlock()

	r := ps.r
	p, err := r.members[i].LRPattern(ps.cols)
	if err != nil {
		return nil, memberErr(i, PhaseLR, "genotype pattern: %w", err)
	}
	if err := validateLRMatrix(p, r.caseNs[i], len(ps.cols)); err != nil {
		return nil, memberErr(i, PhaseLR, "%w", err)
	}
	if !p.IsPattern() {
		return nil, memberErr(i, PhaseLR, "%w: genotype pattern carries non-zero representatives", ErrInvalidPayload)
	}
	// Patterns are genotype-oriented, so each column's popcount must equal
	// the minor-allele count the member reported in Phase 1 — a flipped bit
	// passes every shape check but not this one.
	if err := validatePatternCounts(p, ps.cols, r.counts[i]); err != nil {
		return nil, memberErr(i, PhaseLR, "%w", err)
	}

	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.pats[i] == nil {
		n := bitLRBytes(r.caseNs[i], int64(len(ps.cols)))
		if err := r.allocLR(n); err != nil {
			return nil, err
		}
		ps.bytes += n
		ps.pats[i] = p
	}
	return ps.pats[i], nil
}

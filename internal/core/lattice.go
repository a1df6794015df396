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
// goroutine — how Phase 1 runs: a chain's work there is a few vector adds per
// step, too little to pay for scheduling. A failed chain does not stop the
// next; the errors are joined. Phase 2's collusion chains run on the pool
// against a frozen pair table (phase2LD), Phase 3's on the pool outright
// (phase3Chains).
func walkInOrder(chains []latticeChain, fn func(ch *latticeChain) error) error {
	var errs []error
	for i := range chains {
		if err := fn(&chains[i]); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// pairTable is Phase 2's one store of pair statistics, owned by the run and
// released at the Phase-2 boundary (assessmentRun.releasePairs). The pooled
// statistics of a combination decompose into the reference panel's
// contribution plus one contribution per presumed-honest member, and of a
// contribution only the joint count Σxy is the pair's own: its population and
// marginals are the contributor's Phase-1 size and counts, and for binary
// genotypes its squares equal its marginals — what prefetchPairs checks a
// member's statistics against before one is stored (checkPairStats). So an
// entry holds the panel's joint count with the panel's LD decision across
// the pooled sizes from the panel's to the full membership's (bandDecision,
// the predictor), and one validated joint count per member; a pooled query
// from any combination of any chain is a lookup plus at most k integer adds
// per sum.
//
// Entries are indexed by the pair's second column: the LD scan asks each
// column with one survivor in the common case, so a lookup is one array
// probe, and a map holds the rare further pairs sharing a second column.
//
// One goroutine at a time writes the table — the full-membership scan, then
// the re-runs of the chains that stopped — and the collusion chains running
// concurrently in between only read it (phase2LD).
type pairTable struct {
	g         int
	fullN     int64            // the full membership's pooled size, the band's top
	refN      int64            // the panel's size
	refCounts []int64          // the panel's Phase-1 counts
	counts    [][]int64        // each member's validated Phase-1 counts
	caseNs    []int64          // each member's validated population size
	bySecond  []int32          // index+1 of the first entry per second column, 0 for none
	more      map[uint64]int32 // index of each further entry sharing a second column
	entries   []pairEntry
	// members holds g joint counts per entry, entry k's at
	// members[k*g : (k+1)*g], each −1 until that member's is fetched.
	members []int64
}

type pairEntry struct {
	a         int32
	dependent bool  // the panel's LD decision at its own size
	open      bool  // whether that decision flips by the full membership's size
	xy        int64 // the panel's joint count
}

// newPairTable returns an empty table over the run's Phase-1 summaries.
func newPairTable(refCounts []int64, refN int64, counts [][]int64, caseNs []int64) *pairTable {
	fullN := refN
	for _, n := range caseNs {
		fullN += n
	}
	return &pairTable{
		g: len(counts), fullN: fullN, refN: refN, refCounts: refCounts, counts: counts, caseNs: caseNs,
		bySecond: make([]int32, len(refCounts)),
	}
}

// lookup returns the index of the entry for the pair (a, b).
func (t *pairTable) lookup(a, b int) (int, bool) {
	if k := int(t.bySecond[b]) - 1; k >= 0 && int(t.entries[k].a) == a {
		return k, true
	}
	k, ok := t.more[pairKey(a, b)]
	return int(k), ok
}

// add stores a new entry for (a, b) with the panel's joint count xy and no
// member contribution yet, and returns its index.
func (t *pairTable) add(a, b int, xy int64, cutoff float64) int {
	k := len(t.entries)
	ref := genome.PairStatsFromCounts(t.refN, t.refCounts[a], t.refCounts[b], xy)
	dependent, open := bandDecision(ref, t.fullN, cutoff)
	t.entries = append(t.entries, pairEntry{a: int32(a), dependent: dependent, open: open, xy: xy})
	for i := 0; i < t.g; i++ {
		t.members = append(t.members, -1)
	}
	if t.bySecond[b] == 0 {
		t.bySecond[b] = int32(k + 1)
	} else {
		if t.more == nil {
			t.more = make(map[uint64]int32)
		}
		t.more[pairKey(a, b)] = int32(k)
	}
	return k
}

// predict is the predictor over the table as it stands: a pair without an
// entry is settled independent.
func (t *pairTable) predict(a, b int) (dependent, open bool) {
	k, ok := t.lookup(a, b)
	if !ok {
		return false, false
	}
	return t.entries[k].dependent, t.entries[k].open
}

// member returns member i's joint-count slot in entry k, −1 while missing.
func (t *pairTable) member(k, i int) *int64 { return &t.members[k*t.g+i] }

// pooled returns the statistics of the pair (a, b), entry k, pooled over the
// panel and subset: the summed sizes, Phase-1 counts and joint counts. It
// reports false when a member's joint count is missing.
func (t *pairTable) pooled(k, a, b int, subset []int) (genome.PairStats, bool) {
	n, x, y, xy := t.refN, t.refCounts[a], t.refCounts[b], t.entries[k].xy
	per := t.members[k*t.g : (k+1)*t.g]
	for _, i := range subset {
		if per[i] < 0 {
			return genome.PairStats{}, false
		}
		n += t.caseNs[i]
		x += t.counts[i][a]
		y += t.counts[i][b]
		xy += per[i]
	}
	return genome.PairStatsFromCounts(n, x, y, xy), true
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

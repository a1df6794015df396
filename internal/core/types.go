package core

import (
	"fmt"
	"time"
)

// Selection records the SNP subsets retained after each verification phase,
// as original SNP indices (the rows of Table 4).
type Selection struct {
	// AfterMAF is L': SNPs surviving the MAF cutoff.
	AfterMAF []int
	// AfterLD is L'': SNPs surviving linkage-disequilibrium pruning.
	AfterLD []int
	// Safe is L_safe: SNPs whose statistics can be released.
	Safe []int
	// Power is the residual identification power over Safe.
	Power float64
}

// Counts returns the sizes of the three subsets (the Table 4 row format).
func (s Selection) Counts() (maf, ld, lr int) {
	return len(s.AfterMAF), len(s.AfterLD), len(s.Safe)
}

// String formats the selection like a Table 4 cell.
func (s Selection) String() string {
	return fmt.Sprintf("MAF %d / LD %d / LR %d", len(s.AfterMAF), len(s.AfterLD), len(s.Safe))
}

// Equal reports whether two selections retained identical SNP sets.
func (s Selection) Equal(o Selection) bool {
	return equalInts(s.AfterMAF, o.AfterMAF) &&
		equalInts(s.AfterLD, o.AfterLD) &&
		equalInts(s.Safe, o.Safe)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Timings is the running-time breakdown of Figures 5 and 6. Each bucket
// matches one legend entry of the paper's plots. The collusion chains of
// Phases 2 and 3 run on every worker, so LD and LRTest (and the aggregation
// and indexing time spent inside those chains) are sums over workers and
// can exceed the wall time.
type Timings struct {
	// DataAggregation covers collecting and summing member contributions
	// (or pooling genomes, for the centralized baseline).
	DataAggregation time.Duration
	// Indexing covers index bookkeeping, sorting/ranking and allele
	// frequency computation ("Indexing/Sorting/AlleFreq." in the plots).
	Indexing time.Duration
	// LD covers the linkage-disequilibrium analysis.
	LD time.Duration
	// LRTest covers building, merging and searching over LR-matrices.
	LRTest time.Duration
}

// Total returns the end-to-end running time.
func (t Timings) Total() time.Duration {
	return t.DataAggregation + t.Indexing + t.LD + t.LRTest
}

// Add accumulates another breakdown (used when summing per-combination runs).
func (t Timings) Add(o Timings) Timings {
	return Timings{
		DataAggregation: t.DataAggregation + o.DataAggregation,
		Indexing:        t.Indexing + o.Indexing,
		LD:              t.LD + o.LD,
		LRTest:          t.LRTest + o.LRTest,
	}
}

// Report is the outcome of one assessment run.
type Report struct {
	Selection Selection
	Timings   Timings
	// PeakEnclaveBytes is the high-water mark of protected memory accounted
	// inside the coordinating enclave (Table 3's memory column).
	PeakEnclaveBytes int64
	// PeakLRMatrixBytes is the high-water mark of the leader-enclave memory
	// occupied by LR-matrices alone (the Phase 3 component of the enclave
	// footprint, and the quantity the bit-packed kernel shrinks).
	PeakLRMatrixBytes int64
	// Combinations is the number of honest-subset combinations evaluated
	// (1 when collusion tolerance is off).
	Combinations int
	// PerCombination holds each combination's selection when collusion
	// tolerance is on (indexed like the combination enumeration).
	PerCombination []Selection
	// Excluded lists the members (by their original indices) that failed and
	// were excluded under quorum degradation. Empty for a full-membership
	// run; only ever populated under AssessmentOptions.Resilience.
	Excluded []int
	// Resumed reports that at least one phase was replayed from a checkpoint
	// instead of recomputed — set when a (re-elected or restarted) leader
	// seeded the run from a compatible snapshot.
	Resumed bool
	// Blamed holds the structured misbehavior attributions collected during
	// the run: one record per quarantined contribution (equivocation or
	// invalid payload), carried across restarts and checkpoints. Only ever
	// populated by Byzantine-aware resilient runs.
	Blamed []Blame
	// Rejoined lists the members (by their original indices) that were
	// excluded mid-run and later re-admitted at a phase boundary after
	// re-attesting and passing the summary audit. Such members do not appear
	// in Excluded.
	Rejoined []int
	// CorruptionRecovered reports that the resumed-from checkpoint store
	// found a corrupt boundary record and transparently fell back to the
	// boundary before it.
	CorruptionRecovered bool
}

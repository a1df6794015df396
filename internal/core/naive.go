package core

import (
	"fmt"
	"time"

	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
	"gendpr/internal/stats"
)

// RunNaive is the incorrect-by-design baseline of Section 7.3: each GDO runs
// the LD and LR-test analyses independently over its local dataset (using
// local allele frequencies instead of pooled ones) and shares only its
// selected SNP indices; the leader intersects them. Phase 1 still uses
// aggregated counts — the paper observes the naïve scheme "is able to retain
// the same SNPs during the MAF evaluation" — but Phases 2 and 3 diverge
// because local data does not reflect the federation-wide genome
// distribution, which Table 4 demonstrates.
func RunNaive(shards []*genome.Matrix, reference *genome.Matrix, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, ErrNoMembers
	}
	if reference == nil || reference.N() == 0 {
		return nil, fmt.Errorf("core: naive baseline needs a non-empty reference panel")
	}
	report := &Report{Combinations: len(shards)}

	// Phase 1: global MAF over aggregated counts (same as GenDPR).
	start := time.Now()
	vectors := make([][]int64, len(shards))
	var caseN int64
	for i, s := range shards {
		vectors[i] = s.AlleleCounts()
		caseN += int64(s.N())
	}
	summed, err := stats.SumCounts(vectors...)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	refCounts := reference.AlleleCounts()
	refN := int64(reference.N())
	report.Timings.DataAggregation += time.Since(start)

	start = time.Now()
	lPrime, err := MAFPhase(summed, caseN, refCounts, refN, cfg.MAFCutoff)
	report.Timings.Indexing += time.Since(start)
	if err != nil {
		return nil, err
	}

	// Phases 2 and 3, locally and independently per GDO.
	perLD := make([][]int, len(shards))
	perSafe := make([][]int, len(shards))
	for i, s := range shards {
		localN := int64(s.N())
		localCounts := vectors[i]

		start = time.Now()
		pvals, err := AssociationPValues(localCounts, localN, refCounts, refN, cfg.PaperChiSquare)
		report.Timings.Indexing += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("core: naive member %d: %w", i, err)
		}

		start = time.Now()
		localPair := func(a, b int) (genome.PairStats, error) {
			return s.PairStats(a, b).Add(reference.PairStats(a, b)), nil
		}
		lDouble, err := LDPhase(lPrime, localPair, pvals, cfg.LDCutoff)
		report.Timings.LD += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("core: naive member %d: %w", i, err)
		}
		perLD[i] = lDouble

		start = time.Now()
		caseFreq := Frequencies(localCounts, localN, lDouble)
		refFreq := Frequencies(refCounts, refN, lDouble)
		ratios, err := lrRatios(len(lDouble), caseFreq, refFreq)
		if err != nil {
			return nil, fmt.Errorf("core: naive member %d: %w", i, err)
		}
		caseLR, err := gatherLR(s, lDouble, ratios)
		if err != nil {
			return nil, fmt.Errorf("core: naive member %d: %w", i, err)
		}
		refLR, err := gatherLR(reference, lDouble, ratios)
		if err != nil {
			return nil, fmt.Errorf("core: naive member %d: %w", i, err)
		}
		safe, power, err := LRPhaseBit(lDouble, []*lrtest.BitMatrix{caseLR}, ratios, refLR, cfg.LR, nil, nil)
		report.Timings.LRTest += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("core: naive member %d: %w", i, err)
		}
		perSafe[i] = safe
		report.PerCombination = append(report.PerCombination, Selection{
			AfterMAF: lPrime,
			AfterLD:  lDouble,
			Safe:     safe,
			Power:    power,
		})
	}

	start = time.Now()
	report.Selection = Selection{
		AfterMAF: lPrime,
		AfterLD:  IntersectSorted(perLD...),
		Safe:     IntersectSorted(perSafe...),
	}
	report.Timings.Indexing += time.Since(start)

	// The naive intersection can leave "safe" SNPs outside the intersected
	// LD set (each member pruned a different neighbourhood); the paper's
	// Table 4 shows exactly this inconsistency. Keep Safe within AfterLD so
	// downstream consumers see a coherent, if mis-selected, subset.
	report.Selection.Safe = IntersectSorted(report.Selection.Safe, report.Selection.AfterLD)
	return report, nil
}

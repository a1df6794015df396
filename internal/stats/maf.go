package stats

import "fmt"

// MAF converts a pooled minor-allele count into a minor-allele frequency.
// The paper's Phase 1 computes globalAlleleFreq[l] = totalGlobalCounts[l]/NT.
func MAF(count, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(count) / float64(total)
}

// SumCounts adds per-SNP count vectors elementwise, the leader-enclave
// aggregation of Phase 1. It returns an error when vector lengths disagree
// (a malformed or tampered GDO contribution); summing zero vectors yields nil.
func SumCounts(vectors ...[]int64) ([]int64, error) {
	if len(vectors) == 0 {
		return nil, nil
	}
	out := make([]int64, len(vectors[0]))
	for _, v := range vectors {
		if len(v) != len(out) {
			return nil, fmt.Errorf("stats: count vector length %d, want %d", len(v), len(out))
		}
		for i, c := range v {
			out[i] += c
		}
	}
	return out, nil
}

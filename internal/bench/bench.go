// Package bench is the experiment harness behind cmd/experiments, the one
// generator of the paper's tables and figures that EXPERIMENTS.md records.
// It defines the paper's workload grid, caches generated cohorts, measures
// each table as rows and renders the rows in the shape of the paper's tables
// and figures. TestExactColumnsGolden pins the columns of the scale-1 tables
// that read the same on every run.
//
// The paper evaluates on 7,430/14,860 case genomes (plus a 13,035-genome
// reference) and 1,000–10,000 SNPs. Every workload takes a Scale factor
// applied to the genome counts (SNP counts are never scaled — they drive the
// selection behaviour). Scale 1.0 reproduces the paper's sizes, and the
// whole grid runs in seconds at that scale; smaller scales exist for smoke
// runs and tests.
package bench

import (
	"fmt"
	"sync"

	"gendpr/internal/core"
	"gendpr/internal/genome"
)

// Seed fixes every synthetic dataset used by experiments.
const Seed = 42

// PaperReferenceN is the control-population size of the paper's dataset.
const PaperReferenceN = 13035

// Workload is one experiment configuration.
type Workload struct {
	// SNPs is the size of the desired SNP set L_des.
	SNPs int
	// Genomes is the paper-scale case-population size (before scaling).
	Genomes int
	// Scale multiplies Genomes and the reference size.
	Scale float64
}

// CaseN returns the scaled case-population size.
func (w Workload) CaseN() int { return scaled(w.Genomes, w.Scale) }

// ReferenceN returns the scaled reference-panel size.
func (w Workload) ReferenceN() int { return scaled(PaperReferenceN, w.Scale) }

// Label renders the workload like the paper captions ("7,430 genomes /
// 1,000 SNPs"), with the effective size when scaled.
func (w Workload) Label() string {
	if w.Scale == 1 {
		return fmt.Sprintf("%d genomes / %d SNPs", w.Genomes, w.SNPs)
	}
	return fmt.Sprintf("%d genomes / %d SNPs (scale %.2g of %d)", w.CaseN(), w.SNPs, w.Scale, w.Genomes)
}

func scaled(n int, scale float64) int {
	if scale <= 0 || scale == 1 {
		return n
	}
	s := int(float64(n) * scale)
	if s < 40 {
		s = 40
	}
	return s
}

// GDOGrid is the federation-size axis of Figures 5 and 6 and Table 3.
var GDOGrid = []int{2, 3, 5, 7}

// FigureWorkloads maps each running-time figure to its workload.
func FigureWorkloads(scale float64) map[string]Workload {
	return map[string]Workload{
		"fig5a": {SNPs: 1000, Genomes: 7430, Scale: scale},
		"fig5b": {SNPs: 1000, Genomes: 14860, Scale: scale},
		"fig6a": {SNPs: 10000, Genomes: 7430, Scale: scale},
		"fig6b": {SNPs: 10000, Genomes: 14860, Scale: scale},
	}
}

// Table4Workloads is the selection-comparison grid of Table 4.
func Table4Workloads(scale float64) []Workload {
	var out []Workload
	for _, genomes := range []int{7430, 14860} {
		for _, snps := range []int{1000, 2500, 5000, 10000} {
			out = append(out, Workload{SNPs: snps, Genomes: genomes, Scale: scale})
		}
	}
	return out
}

// cohortCache memoizes generated cohorts: the 10,000-SNP cohorts take the
// longest to build and are shared across many experiments.
var cohortCache struct {
	mu sync.Mutex
	m  map[string]*genome.Cohort
}

// Cohort returns the (cached) synthetic cohort for a workload.
func Cohort(w Workload) (*genome.Cohort, error) {
	key := fmt.Sprintf("%d/%d/%d", w.SNPs, w.CaseN(), w.ReferenceN())
	cohortCache.mu.Lock()
	defer cohortCache.mu.Unlock()
	if cohortCache.m == nil {
		cohortCache.m = make(map[string]*genome.Cohort)
	}
	if c, ok := cohortCache.m[key]; ok {
		return c, nil
	}
	cfg := genome.DefaultGeneratorConfig(w.SNPs, w.CaseN(), Seed)
	cfg.ReferenceN = w.ReferenceN()
	c, err := genome.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: generate %s: %w", w.Label(), err)
	}
	cohortCache.m[key] = c
	return c, nil
}

// RunCentralized executes the baseline on a workload.
func RunCentralized(w Workload) (*core.Report, error) {
	cohort, err := Cohort(w)
	if err != nil {
		return nil, err
	}
	return core.RunCentralized(cohort, core.DefaultConfig())
}

// RunGenDPR executes the distributed protocol on a workload.
func RunGenDPR(w Workload, gdos int, policy core.CollusionPolicy) (*core.Report, error) {
	cohort, err := Cohort(w)
	if err != nil {
		return nil, err
	}
	shards, err := cohort.Partition(gdos)
	if err != nil {
		return nil, err
	}
	return core.RunDistributed(shards, cohort.Reference, core.DefaultConfig(), policy)
}

// RunNaive executes the naïve baseline on a workload.
func RunNaive(w Workload, gdos int) (*core.Report, error) {
	cohort, err := Cohort(w)
	if err != nil {
		return nil, err
	}
	shards, err := cohort.Partition(gdos)
	if err != nil {
		return nil, err
	}
	return core.RunNaive(shards, cohort.Reference, core.DefaultConfig())
}

package core

import (
	"fmt"
	"time"

	"gendpr/internal/enclave"
	"gendpr/internal/genome"
)

// enclaveCodeIdentity is the simulated measurement source for the GenDPR
// trusted modules. Real deployments measure the enclave binary.
var enclaveCodeIdentity = []byte("gendpr-trusted-module-v1")

// newAssessmentEnclave loads a fresh enclave for one assessment run.
func newAssessmentEnclave(memoryLimit int64) (*enclave.Enclave, error) {
	platform, err := enclave.NewPlatform()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	enc, err := platform.Load(enclaveCodeIdentity, enclave.Config{MemoryLimit: memoryLimit})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return enc, nil
}

// RunCentralized is the baseline of the paper's evaluation: SecureGenome's
// pipeline inside a single TEE that first pools every case genome. Its
// selection output is the ground truth GenDPR must match (Table 4), and its
// enclave must pay for holding all genomes (unlike GenDPR's leader, which
// only holds intermediates).
func RunCentralized(cohort *genome.Cohort, cfg Config) (*Report, error) {
	if err := cohort.Validate(); err != nil {
		return nil, err
	}
	enc, err := newAssessmentEnclave(0)
	if err != nil {
		return nil, err
	}

	// Centralizing: every genome is transferred into the enclave.
	start := time.Now()
	pooled := cohort.Case.Clone()
	poolCost := time.Since(start)
	if err := enc.Alloc(pooled.SizeBytes() + cohort.Reference.SizeBytes()); err != nil {
		return nil, fmt.Errorf("core: centralized enclave cannot hold the pooled genomes: %w", err)
	}

	report, err := RunAssessment(
		[]Provider{NewLocalMember(pooled)},
		cohort.Reference,
		cfg,
		CollusionPolicy{},
		enc,
		AssessmentOptions{},
	)
	if err != nil {
		return nil, err
	}
	report.Timings.DataAggregation += poolCost
	return report, nil
}

// RunDistributed executes GenDPR in-process: one Provider per genome data
// owner shard, a fresh leader enclave for accounting, and the collusion
// policy applied per phase. The networked middleware in internal/federation
// drives the identical RunAssessment over encrypted connections.
func RunDistributed(shards []*genome.Matrix, reference *genome.Matrix, cfg Config, policy CollusionPolicy) (*Report, error) {
	providers := make([]Provider, len(shards))
	for i, s := range shards {
		providers[i] = NewLocalMember(s)
	}
	enc, err := newAssessmentEnclave(0)
	if err != nil {
		return nil, err
	}
	return RunAssessment(providers, reference, cfg, policy, enc, AssessmentOptions{})
}

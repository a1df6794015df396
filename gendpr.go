// Package gendpr is a Go implementation of GenDPR — "Secure and Distributed
// Assessment of Privacy-Preserving GWAS Releases" (Pascoal, Decouchant,
// Völp; ACM/IFIP Middleware 2022).
//
// A federation of genome data owners (GDOs) wants to publish GWAS statistics
// over a desired SNP set without enabling membership-inference attacks.
// GenDPR determines the safe-to-release subset in a fully distributed way:
// genomes never leave their owner's premises; trusted execution environments
// exchange only encrypted intermediate results (allele counts, pairwise
// correlation statistics, LR-matrices); and the selection equals what a
// centralized SecureGenome assessment over the pooled genomes would produce.
// Optionally the assessment tolerates up to all-but-one colluding
// honest-but-curious members.
//
// # Quick start
//
//	cohort, _ := gendpr.GenerateCohort(gendpr.DefaultGeneratorConfig(1000, 1486, 42))
//	shards, _ := cohort.Partition(3)
//	report, _ := gendpr.AssessDistributed(shards, cohort.Reference, gendpr.DefaultConfig(), gendpr.CollusionPolicy{})
//	fmt.Println(report.Selection) // MAF x / LD y / LR z
//
// AssessDistributed runs the protocol in-process; AssessFederated and
// AssessFederatedTCP run the full middleware with remote attestation and
// encrypted channels between per-GDO enclaves.
package gendpr

import (
	"context"
	"fmt"

	"gendpr/internal/core"
	"gendpr/internal/federation"
	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
	"gendpr/internal/release"
)

// Re-exported types. The implementation lives in internal packages; these
// aliases are the stable public surface.
type (
	// Config carries the privacy-assessment parameters (MAF cutoff, LD
	// cutoff, LR-test settings).
	Config = core.Config
	// CollusionPolicy selects how many colluding members to tolerate.
	CollusionPolicy = core.CollusionPolicy
	// Report is the outcome of one assessment run.
	Report = core.Report
	// Selection lists the SNPs retained after each phase.
	Selection = core.Selection
	// Timings is the per-phase running-time breakdown.
	Timings = core.Timings
	// Cohort bundles the private case genomes and the public reference.
	Cohort = genome.Cohort
	// Matrix is a binary genotype matrix.
	Matrix = genome.Matrix
	// GeneratorConfig controls synthetic cohort generation.
	GeneratorConfig = genome.GeneratorConfig
	// FederationResult is the outcome of a middleware (networked) run.
	FederationResult = federation.Result
	// RunOptions configures the fault-tolerance envelope of a federation
	// run: per-exchange deadlines, retry with reconnect and re-attestation,
	// and quorum-based degradation. The run tolerates member failures only
	// when MaxRetries, MinQuorum or AllowRejoin asks for it; the zero value
	// reproduces the base protocol (no deadlines, no retries, abort on any
	// member failure).
	RunOptions = federation.RunOptions
	// MemberEvent is one member health transition observed through
	// RunOptions.OnEvent.
	MemberEvent = federation.MemberEvent
	// Blame is a structured misbehavior attribution from a Byzantine-aware
	// run (Report.Blamed).
	Blame = core.Blame
)

// DefaultConfig returns the paper's evaluation settings: MAF cutoff 0.05,
// LD cutoff 1e-5, LR-test with false-positive rate 0.1 and identification
// power threshold 0.9.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultGeneratorConfig returns a synthetic-cohort configuration shaped
// like the paper's dbGaP evaluation dataset.
func DefaultGeneratorConfig(snps, caseGenomes int, seed int64) GeneratorConfig {
	return genome.DefaultGeneratorConfig(snps, caseGenomes, seed)
}

// GenerateCohort produces a deterministic synthetic cohort.
func GenerateCohort(cfg GeneratorConfig) (*Cohort, error) { return genome.Generate(cfg) }

// AssessCentralized runs the centralized SecureGenome baseline: every genome
// pooled inside one enclave. It is the ground truth GenDPR matches.
func AssessCentralized(cohort *Cohort, cfg Config) (*Report, error) {
	return core.RunCentralized(cohort, cfg)
}

// AssessDistributed runs the GenDPR protocol in-process: one provider per
// GDO shard, leader-side aggregation, optional collusion tolerance.
func AssessDistributed(shards []*Matrix, reference *Matrix, cfg Config, policy CollusionPolicy) (*Report, error) {
	return core.RunDistributed(shards, reference, cfg, policy)
}

// AssessNaive runs the incorrect naïve baseline of the paper's Section 7.3,
// in which members select SNPs from local data only and the leader
// intersects their choices.
func AssessNaive(shards []*Matrix, reference *Matrix, cfg Config) (*Report, error) {
	return core.RunNaive(shards, reference, cfg)
}

// AssessFederated runs the full middleware inside one process: per-GDO
// enclaves, random leader election, mutual remote attestation, and
// AES-256-GCM-protected in-memory channels. opts sets the fault-tolerance
// envelope: deadlines on every member exchange, automatic reconnection with
// capped exponential backoff, and quorum degradation
// (FederationResult.Excluded lists members dropped mid-run). The zero
// RunOptions runs the base protocol.
func AssessFederated(shards []*Matrix, reference *Matrix, cfg Config, policy CollusionPolicy, opts RunOptions) (*FederationResult, error) {
	return federation.RunInProcess(context.Background(), shards, reference, cfg, policy, opts)
}

// AssessFederatedTCP is AssessFederated across loopback TCP connections.
func AssessFederatedTCP(shards []*Matrix, reference *Matrix, cfg Config, policy CollusionPolicy, opts RunOptions) (*FederationResult, error) {
	return federation.RunOverTCP(context.Background(), shards, reference, cfg, policy, opts)
}

// Adversary models the paper's membership-inference attacker: it holds a
// victim genotype, the released case allele frequencies, and a reference
// panel, and decides membership with a calibrated likelihood-ratio test.
// Use it to audit what a release would leak.
type Adversary = lrtest.Adversary

// NewAdversary calibrates a membership-inference adversary against a release
// restricted to some SNP subset. The frequency vectors and the reference
// genotypes must already be restricted to the released columns; alpha is the
// attacker's tolerated false-positive rate.
func NewAdversary(releasedCaseFreq, refFreq []float64, reference *Matrix, alpha float64) (*Adversary, error) {
	return lrtest.NewAdversary(releasedCaseFreq, refFreq, reference, alpha)
}

// SubsetFrequencies converts per-SNP counts to frequencies restricted to the
// given SNP columns — the released statistics for a selection.
func SubsetFrequencies(counts []int64, n int64, cols []int) []float64 {
	return core.Frequencies(counts, n, cols)
}

// ReleaseDocument is a signed open-access GWAS statistics publication over
// the safe SNP subset — the artifact of the paper's Figure 1.
type ReleaseDocument = release.Document

// ReleaseParameters echoes the assessment settings inside a release.
type ReleaseParameters = release.Parameters

// BuildRelease assembles the publication for an assessment outcome:
// per-SNP case/reference frequencies, chi-square statistics, p-values and
// odds ratios over exactly the safe subset. Sign it with a key rooted in the
// leader enclave before distribution.
func BuildRelease(studyID string, cohort *Cohort, report *Report, cfg Config, policy CollusionPolicy) (*ReleaseDocument, error) {
	colluders := fmt.Sprintf("f=%d", policy.F)
	if policy.Conservative {
		colluders = "f={1..G-1}"
	}
	return release.Build(
		studyID,
		cohort.Case.AlleleCounts(), int64(cohort.Case.N()),
		cohort.Reference.AlleleCounts(), int64(cohort.Reference.N()),
		report.Selection.Safe,
		release.Parameters{
			MAFCutoff:      cfg.MAFCutoff,
			LDCutoff:       cfg.LDCutoff,
			Alpha:          cfg.LR.Alpha,
			PowerThreshold: cfg.LR.PowerThreshold,
			Colluders:      colluders,
		},
	)
}

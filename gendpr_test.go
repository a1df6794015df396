package gendpr_test

import (
	"testing"

	"gendpr"
)

func publicCohort(t testing.TB, snps, caseN int, seed int64) *gendpr.Cohort {
	t.Helper()
	cohort, err := gendpr.GenerateCohort(gendpr.DefaultGeneratorConfig(snps, caseN, seed))
	if err != nil {
		t.Fatalf("GenerateCohort: %v", err)
	}
	return cohort
}

func TestPublicAPIEndToEnd(t *testing.T) {
	cohort := publicCohort(t, 120, 300, 77)
	shards, err := cohort.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gendpr.DefaultConfig()

	dist, err := gendpr.AssessDistributed(shards, cohort.Reference, cfg, gendpr.CollusionPolicy{})
	if err != nil {
		t.Fatalf("AssessDistributed: %v", err)
	}
	central, err := gendpr.AssessCentralized(cohort, cfg)
	if err != nil {
		t.Fatalf("AssessCentralized: %v", err)
	}
	if !dist.Selection.Equal(central.Selection) {
		t.Errorf("distributed %v != centralized %v", dist.Selection, central.Selection)
	}

	naive, err := gendpr.AssessNaive(shards, cohort.Reference, cfg)
	if err != nil {
		t.Fatalf("AssessNaive: %v", err)
	}
	if len(naive.Selection.AfterMAF) != len(central.Selection.AfterMAF) {
		t.Error("naive MAF phase should match")
	}
}

func TestPublicFederatedRun(t *testing.T) {
	cohort := publicCohort(t, 80, 200, 79)
	shards, err := cohort.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gendpr.AssessFederated(shards, cohort.Reference, gendpr.DefaultConfig(), gendpr.CollusionPolicy{F: 1}, gendpr.RunOptions{})
	if err != nil {
		t.Fatalf("AssessFederated: %v", err)
	}
	if res.Report.Combinations != 4 {
		t.Errorf("combinations=%d, want 4", res.Report.Combinations)
	}
}

func TestPublicAdversaryAudit(t *testing.T) {
	cohort := publicCohort(t, 150, 500, 83)
	shards, err := cohort.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gendpr.DefaultConfig()
	rep, err := gendpr.AssessDistributed(shards, cohort.Reference, cfg, gendpr.CollusionPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Selection.Safe) == 0 {
		t.Skip("no safe SNPs for this seed")
	}
	caseCounts := cohort.Case.AlleleCounts()
	refCounts := cohort.Reference.AlleleCounts()
	released := gendpr.SubsetFrequencies(caseCounts, int64(cohort.Case.N()), rep.Selection.Safe)
	refFreq := gendpr.SubsetFrequencies(refCounts, int64(cohort.Reference.N()), rep.Selection.Safe)
	adv, err := gendpr.NewAdversary(released, refFreq, cohort.Reference.SelectColumns(rep.Selection.Safe), cfg.LR.Alpha)
	if err != nil {
		t.Fatalf("NewAdversary: %v", err)
	}
	power, err := adv.DetectionPower(cohort.Case.SelectColumns(rep.Selection.Safe))
	if err != nil {
		t.Fatal(err)
	}
	if power >= cfg.LR.PowerThreshold {
		t.Errorf("attack power %v over the safe release reaches the bound %v", power, cfg.LR.PowerThreshold)
	}
}

func TestPublicBuildRelease(t *testing.T) {
	cohort := publicCohort(t, 100, 260, 91)
	shards, err := cohort.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gendpr.DefaultConfig()
	policy := gendpr.CollusionPolicy{F: 1}
	rep, err := gendpr.AssessDistributed(shards, cohort.Reference, cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := gendpr.BuildRelease("study-x", cohort, rep, cfg, policy)
	if err != nil {
		t.Fatalf("BuildRelease: %v", err)
	}
	if len(doc.Statistics) != len(rep.Selection.Safe) {
		t.Errorf("release has %d rows, want %d", len(doc.Statistics), len(rep.Selection.Safe))
	}
	if doc.Parameters.Colluders != "f=1" {
		t.Errorf("colluders label %q", doc.Parameters.Colluders)
	}
	conservative, err := gendpr.BuildRelease("study-x", cohort, rep, cfg, gendpr.CollusionPolicy{Conservative: true})
	if err != nil {
		t.Fatal(err)
	}
	if conservative.Parameters.Colluders != "f={1..G-1}" {
		t.Errorf("conservative label %q", conservative.Parameters.Colluders)
	}
	// Released rows cover only safe SNPs.
	safe := make(map[int]bool, len(rep.Selection.Safe))
	for _, l := range rep.Selection.Safe {
		safe[l] = true
	}
	for _, s := range doc.Statistics {
		if !safe[s.SNP] {
			t.Errorf("release contains unsafe SNP %d", s.SNP)
		}
	}
}

// Multicenter: a cross-border federation running the full GenDPR middleware.
//
// Five biocenters in different jurisdictions want to publish GWAS statistics
// for an Age-Related-Macular-Degeneration-style study. GDPR-style rules stop
// them from exporting genomes, so they deploy GenDPR: per-center enclaves
// attest each other over real TCP connections, a leader is elected at
// random, and only encrypted intermediate results cross the wire. The
// example also audits the release with the paper's membership-inference
// adversary: the attack succeeds against a naïve full release and stays
// below the configured power bound against the GenDPR-selected subset.
//
// Run with: go run ./examples/multicenter
package main

import (
	"fmt"
	"log"

	"gendpr"
)

func main() {
	const (
		snps    = 2000
		genomes = 2500
		centers = 5
	)
	cohort, err := gendpr.GenerateCohort(gendpr.DefaultGeneratorConfig(snps, genomes, 7))
	if err != nil {
		log.Fatal(err)
	}
	shards, err := cohort.Partition(centers)
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range shards {
		fmt.Printf("center %d holds %d genomes (never leave its premises)\n", i, s.N())
	}

	cfg := gendpr.DefaultConfig()
	res, err := gendpr.AssessFederatedTCP(shards, cohort.Reference, cfg, gendpr.CollusionPolicy{}, gendpr.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Report
	fmt.Printf("\nleader elected: center %d\n", res.LeaderIndex)
	fmt.Printf("assessment over TCP: %s in %v\n", rep.Selection, rep.Timings.Total())
	fmt.Printf("leader enclave peak memory: %d KB (no pooled genomes)\n", rep.PeakEnclaveBytes/1024)

	// Every member received the same broadcast selection.
	agreed := 0
	for i, sel := range res.MemberSelections {
		if i == res.LeaderIndex {
			continue
		}
		if sel != nil && sel.Equal(rep.Selection) {
			agreed++
		}
	}
	fmt.Printf("members holding the broadcast selection: %d/%d\n", agreed, centers-1)

	// --- Release audit with the paper's membership-inference adversary ---
	caseCounts := cohort.Case.AlleleCounts()
	caseN := int64(cohort.Case.N())
	refCounts := cohort.Reference.AlleleCounts()
	refN := int64(cohort.Reference.N())
	alpha := cfg.LR.Alpha

	audit := func(label string, cols []int) {
		released := gendpr.SubsetFrequencies(caseCounts, caseN, cols)
		reference := gendpr.SubsetFrequencies(refCounts, refN, cols)
		adv, err := gendpr.NewAdversary(released, reference, cohort.Reference.SelectColumns(cols), alpha)
		if err != nil {
			log.Fatal(err)
		}
		power, err := adv.DetectionPower(cohort.Case.SelectColumns(cols))
		if err != nil {
			log.Fatal(err)
		}
		//gendpr:allow(secretflow): demo prints assessment figures over the synthetic cohort it just generated
		fmt.Printf("%-34s %4d SNPs, attack power %.3f\n", label, len(cols), power)
	}

	fmt.Printf("\nmembership attack audit (attacker FPR %.2f):\n", alpha)
	all := make([]int, snps)
	for i := range all {
		all[i] = i
	}
	audit("naive full release:", all)
	audit("GenDPR safe release:", rep.Selection.Safe)
	fmt.Printf("power bound enforced by the LR-test: %.1f\n", cfg.LR.PowerThreshold)
}

package gendpr_test

import (
	"fmt"
	"log"

	"gendpr"
)

// ExampleAssessDistributed shows the minimal federated assessment: generate
// a cohort, shard it across three data owners, and compute the safe-to-
// release SNP subset. Generation is seeded, so the selection is
// deterministic.
func ExampleAssessDistributed() {
	cohort, err := gendpr.GenerateCohort(gendpr.DefaultGeneratorConfig(200, 600, 42))
	if err != nil {
		log.Fatal(err)
	}
	shards, err := cohort.Partition(3)
	if err != nil {
		log.Fatal(err)
	}
	report, err := gendpr.AssessDistributed(shards, cohort.Reference, gendpr.DefaultConfig(), gendpr.CollusionPolicy{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.Selection)
	// Output: MAF 87 / LD 7 / LR 7
}

// ExampleAssessCentralized demonstrates the paper's Table 4 property: the
// distributed assessment selects exactly what a centralized SecureGenome
// run over the pooled genomes would.
func ExampleAssessCentralized() {
	cohort, err := gendpr.GenerateCohort(gendpr.DefaultGeneratorConfig(200, 600, 42))
	if err != nil {
		log.Fatal(err)
	}
	shards, err := cohort.Partition(4)
	if err != nil {
		log.Fatal(err)
	}
	central, err := gendpr.AssessCentralized(cohort, gendpr.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	distributed, err := gendpr.AssessDistributed(shards, cohort.Reference, gendpr.DefaultConfig(), gendpr.CollusionPolicy{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(distributed.Selection.Equal(central.Selection))
	// Output: true
}

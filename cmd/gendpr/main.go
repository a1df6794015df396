// Command gendpr runs one federated GWAS release assessment end to end:
// it generates (or loads) a cohort, splits it across a federation of genome
// data owners, runs the GenDPR middleware with remote attestation and
// encrypted channels, and prints the safe-to-release SNP selection.
//
// Usage:
//
//	gendpr -snps 1000 -genomes 1486 -gdos 3 -f 1
//	gendpr -snps 1000 -genomes 1486 -gdos 5 -tcp
//	gendpr -case case.vcf -reference ref.vcf -gdos 3
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"

	"gendpr"
	"gendpr/internal/cliutil"
	"gendpr/internal/seal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gendpr:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gendpr", flag.ContinueOnError)
	var (
		snps         = fs.Int("snps", 1000, "number of SNP positions to generate")
		genomes      = fs.Int("genomes", 1486, "number of case genomes to generate")
		seed         = fs.Int64("seed", 42, "generator seed")
		gdos         = fs.Int("gdos", 3, "federation size")
		colluders    = fs.Int("f", 0, "tolerated colluding members (0 disables collusion tolerance)")
		conservative = fs.Bool("conservative", false, "tolerate every f in 1..G-1")
		overTCP      = fs.Bool("tcp", false, "run the federation over loopback TCP instead of in-memory channels")
		caseFile     = fs.String("case", "", "case-population VCF file (instead of generating)")
		refFile      = fs.String("reference", "", "reference-panel VCF file (required with -case)")
		releaseOut   = fs.String("release", "", "write the signed GWAS statistics release to this JSON file (key written alongside as <file>.pub)")
		studyID      = fs.String("study", "gendpr-study", "study identifier embedded in the release")
	)
	ff := cliutil.RegisterFaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cohort, err := loadOrGenerate(*caseFile, *refFile, *snps, *genomes, *seed)
	if err != nil {
		return err
	}
	shards, err := cohort.Partition(*gdos)
	if err != nil {
		return err
	}
	policy := gendpr.CollusionPolicy{F: *colluders, Conservative: *conservative}
	cfg := gendpr.DefaultConfig()

	fmt.Printf("federation: %d GDOs, %d case genomes, %d reference genomes, %d SNPs\n",
		*gdos, cohort.Case.N(), cohort.Reference.N(), cohort.SNPs())

	opts := ff.Options(*studyID)
	assess := gendpr.AssessFederated
	if *overTCP {
		assess = gendpr.AssessFederatedTCP
	}
	res, err := assess(shards, cohort.Reference, cfg, policy, opts)
	if err != nil {
		return err
	}

	rep := res.Report
	fmt.Printf("leader: gdo-%d (randomly elected)\n", res.LeaderIndex)
	for _, e := range res.Excluded {
		fmt.Printf("excluded: gdo-%d failed mid-run and was dropped under quorum degradation\n", e)
	}
	for _, r := range res.Rejoined {
		fmt.Printf("rejoined: gdo-%d was excluded mid-run, re-attested, and rejoined at a phase boundary\n", r)
	}
	for _, b := range rep.Blamed {
		fmt.Printf("blamed: member %s, %s during %s (query %s)\n", b.Member, b.Kind, b.Phase, b.Query)
	}
	fmt.Printf("selection: %s\n", rep.Selection)
	fmt.Printf("residual identification power: %.3f\n", rep.Selection.Power)
	fmt.Printf("combinations evaluated: %d\n", rep.Combinations)
	fmt.Printf("leader enclave peak memory: %d KB\n", rep.PeakEnclaveBytes/1024)
	t := rep.Timings
	fmt.Printf("timings: aggregation %v, indexing %v, LD %v, LR-test %v, total %v\n",
		t.DataAggregation, t.Indexing, t.LD, t.LRTest, t.Total())
	if n := len(rep.Selection.Safe); n > 0 {
		max := n
		if max > 12 {
			max = 12
		}
		fmt.Printf("first safe SNPs: %v", rep.Selection.Safe[:max])
		if n > max {
			fmt.Printf(" … (%d total)", n)
		}
		fmt.Println()
	}
	if *releaseOut != "" {
		if err := writeRelease(*releaseOut, *studyID, cohort, rep, cfg, policy); err != nil {
			return err
		}
	}
	return nil
}

// writeRelease builds, signs and stores the open-access statistics release,
// plus the verification key next to it.
func writeRelease(path, studyID string, cohort *gendpr.Cohort, rep *gendpr.Report, cfg gendpr.Config, policy gendpr.CollusionPolicy) error {
	doc, err := gendpr.BuildRelease(studyID, cohort, rep, cfg, policy)
	if err != nil {
		return err
	}
	key, err := seal.NewSigningKey()
	if err != nil {
		return err
	}
	if err := doc.Sign(key); err != nil {
		return err
	}
	encoded, err := doc.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, encoded, 0o644); err != nil {
		return err
	}
	pubPath := path + ".pub"
	if err := os.WriteFile(pubPath, []byte(hex.EncodeToString(key.Public())+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Printf("release: %d SNP statistics written to %s (verification key %s)\n",
		len(doc.Statistics), path, pubPath)
	return nil
}

func loadOrGenerate(caseFile, refFile string, snps, genomes int, seed int64) (*gendpr.Cohort, error) {
	if caseFile == "" && refFile == "" {
		return gendpr.GenerateCohort(gendpr.DefaultGeneratorConfig(snps, genomes, seed))
	}
	if caseFile == "" || refFile == "" {
		return nil, fmt.Errorf("-case and -reference must be given together")
	}
	caseM, err := cliutil.ReadVCF(caseFile)
	if err != nil {
		return nil, err
	}
	refM, err := cliutil.ReadVCF(refFile)
	if err != nil {
		return nil, err
	}
	cohort := &gendpr.Cohort{Case: caseM, Reference: refM}
	if err := cohort.Validate(); err != nil {
		return nil, err
	}
	return cohort, nil
}

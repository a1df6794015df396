package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// goldenPath holds the exact columns of the scale-1 tables EXPERIMENTS.md
// records. It is edited by hand, from the rows a failing run prints.
const goldenPath = "testdata/exact_columns.golden"

// TestExactColumnsGolden regenerates the paper's tables at scale 1 and
// compares every column that reads the same on every run against the golden
// file: Table 4's three funnels, Table 5's safe, vulnerable and combination
// counts, Table 3's enclave KB, and the bandwidth table's protocol bytes and
// messages. Timings are left out, and so are the genome-shipping and savings
// columns: they move with which member the election makes leader.
func TestExactColumnsGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale tables; scripts/check.sh runs this without -short and -race")
	}
	var b strings.Builder
	t4, err := Table4(1)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "# Table 4: centralized | GenDPR | naive, %d GDOs\n", Table4GDOs)
	for _, r := range t4 {
		fmt.Fprintf(&b, "%s | %v | %v | %v\n", r.Workload.Label(), r.Centralized, r.GenDPR, r.Naive)
	}
	t5, err := Table5(1, []int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("# Table 5: safe SNPs (tolerant) | vulnerable w/o tolerance | combinations\n")
	for _, r := range t5 {
		fmt.Fprintf(&b, "G=%d, %s | %d | %d | %d\n", r.G, r.FLabel, r.SafeCT, r.Vulnerable, r.Combinations)
	}
	t3, err := Table3(1)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("# Table 3: enclave memory (KB)\n")
	for _, r := range t3 {
		fmt.Fprintf(&b, "%d GDOs / %d SNPs | %d\n", r.GDOs, r.SNPs, r.EnclaveKB)
	}
	bw, err := Bandwidth(1)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("# Bandwidth: protocol (B) | messages\n")
	for _, r := range bw {
		fmt.Fprintf(&b, "%d GDOs / %d SNPs | %d | %d\n", r.GDOs, r.SNPs, r.ProtocolBytes, r.Messages)
	}

	got := b.String()
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v; the rows this run produced:\n%s", err, got)
	}
	if got != string(want) {
		t.Errorf("rows differ from %s; the rows this run produced:\n%s", goldenPath, got)
	}
}

package bench

import (
	"strings"
	"testing"

	"gendpr/internal/core"
)

// tinyScale keeps harness tests fast; the paper-scale numbers are pinned by
// TestExactColumnsGolden.
const tinyScale = 0.01

func TestWorkloadScaling(t *testing.T) {
	w := Workload{SNPs: 1000, Genomes: 14860, Scale: 1}
	if w.CaseN() != 14860 || w.ReferenceN() != PaperReferenceN {
		t.Errorf("scale 1 must keep paper sizes: %d/%d", w.CaseN(), w.ReferenceN())
	}
	w.Scale = 0.1
	if w.CaseN() != 1486 {
		t.Errorf("scaled CaseN=%d, want 1486", w.CaseN())
	}
	w.Scale = 0.0001
	if w.CaseN() < 40 {
		t.Errorf("scaled CaseN=%d must respect the floor", w.CaseN())
	}
	if !strings.Contains(w.Label(), "scale") {
		t.Errorf("scaled label %q must mention the scale", w.Label())
	}
	w.Scale = 1
	if strings.Contains(w.Label(), "scale") {
		t.Errorf("unscaled label %q must not mention a scale", w.Label())
	}
}

func TestCohortCache(t *testing.T) {
	w := Workload{SNPs: 60, Genomes: 5000, Scale: tinyScale}
	a, err := Cohort(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cohort(w)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache must return the same cohort instance")
	}
	other, err := Cohort(Workload{SNPs: 61, Genomes: 5000, Scale: tinyScale})
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Error("different workloads must not share cohorts")
	}
}

func TestRunnersProduceConsistentReports(t *testing.T) {
	w := Workload{SNPs: 120, Genomes: 30000, Scale: tinyScale}
	central, err := RunCentralized(w)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := RunGenDPR(w, 3, core.CollusionPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !dist.Selection.Equal(central.Selection) {
		t.Errorf("harness runs disagree: %v vs %v", dist.Selection, central.Selection)
	}
	if _, err := RunNaive(w, 3); err != nil {
		t.Fatal(err)
	}
}

func TestFigureTableRenders(t *testing.T) {
	w := Workload{SNPs: 80, Genomes: 40000, Scale: tinyScale}
	table, err := FigureTable(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Centralized", "2 GDOs", "7 GDOs", "LR-test"} {
		if !strings.Contains(table, want) {
			t.Errorf("figure table missing %q:\n%s", want, table)
		}
	}
}

func TestTable3Renders(t *testing.T) {
	rows, err := Table3(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTable3(rows)
	for _, want := range []string{"2 GDOs / 1000 SNPs", "7 GDOs / 10000 SNPs", "Enclave memory"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 3 missing %q:\n%s", want, out)
		}
	}
}

func TestBandwidthRows(t *testing.T) {
	if testing.Short() {
		t.Skip("full middleware grid")
	}
	rows, err := Bandwidth(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8 (4 federation sizes x 2 SNP counts)", len(rows))
	}
	for _, r := range rows {
		if r.ProtocolBytes <= 0 || r.Messages <= 0 || r.GenomeShipBytes <= 0 {
			t.Errorf("row %+v has empty measurements", r)
		}
	}
	// More SNPs means proportionally more protocol traffic.
	if rows[1].ProtocolBytes <= rows[0].ProtocolBytes {
		t.Errorf("10k-SNP traffic %d not above 1k-SNP traffic %d", rows[1].ProtocolBytes, rows[0].ProtocolBytes)
	}
	text := FormatBandwidth(rows)
	if !strings.Contains(text, "7 GDOs / 10000 SNPs") || !strings.Contains(text, "Savings") {
		t.Errorf("formatted table incomplete:\n%s", text)
	}
}

func TestTable5ShapeAndInvariants(t *testing.T) {
	rows, err := Table5(tinyScale, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	// f=1, f=2, conservative.
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Vulnerable < 0 || r.Vulnerable > r.SafeBase {
			t.Errorf("%s: vulnerable %d outside [0, %d]", r.FLabel, r.Vulnerable, r.SafeBase)
		}
		if r.SafePercent+r.VulnPercent > 100.01 || r.SafePercent+r.VulnPercent < 99.99 {
			t.Errorf("%s: percentages do not partition the base release: %.2f + %.2f",
				r.FLabel, r.SafePercent, r.VulnPercent)
		}
		if r.Combinations < 2 {
			t.Errorf("%s: combinations=%d", r.FLabel, r.Combinations)
		}
	}
	// Conservative evaluates the union of combinations.
	if rows[2].Combinations <= rows[0].Combinations {
		t.Errorf("conservative combinations %d should exceed f=1's %d", rows[2].Combinations, rows[0].Combinations)
	}
	text := FormatTable5(rows)
	if !strings.Contains(text, "G=3, f=1") || !strings.Contains(text, "f={1..2}") {
		t.Errorf("formatted table missing rows:\n%s", text)
	}
}

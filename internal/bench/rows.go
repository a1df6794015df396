package bench

import (
	"fmt"
	"strings"
	"time"

	"gendpr/internal/core"
)

// ms renders a duration in milliseconds with one decimal.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// FigureTable renders one running-time figure (5a/5b/6a/6b) as a text table:
// one row per deployment (centralized, then each federation size), one
// column per phase bucket, matching the paper's plot legend. Like the paper,
// each configuration is averaged over reps repetitions (the paper uses 5).
func FigureTable(w Workload, reps int) (string, error) {
	if reps < 1 {
		reps = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Running time (ms, mean of %d runs) — %s\n", reps, w.Label())
	fmt.Fprintf(&b, "%-12s %14s %22s %12s %16s %10s\n",
		"Deployment", "DataAggregation", "Indexing/Sort/AlleleFreq", "LD analysis", "LR-test analysis", "Total")

	average := func(run func() (*core.Report, error)) (core.Timings, error) {
		var sum core.Timings
		for i := 0; i < reps; i++ {
			rep, err := run()
			if err != nil {
				return core.Timings{}, err
			}
			sum = sum.Add(rep.Timings)
		}
		return core.Timings{
			DataAggregation: sum.DataAggregation / time.Duration(reps),
			Indexing:        sum.Indexing / time.Duration(reps),
			LD:              sum.LD / time.Duration(reps),
			LRTest:          sum.LRTest / time.Duration(reps),
		}, nil
	}

	central, err := average(func() (*core.Report, error) { return RunCentralized(w) })
	if err != nil {
		return "", err
	}
	writeTimingRow(&b, "Centralized", central)

	for _, g := range GDOGrid {
		g := g
		t, err := average(func() (*core.Report, error) { return RunGenDPR(w, g, core.CollusionPolicy{}) })
		if err != nil {
			return "", err
		}
		writeTimingRow(&b, fmt.Sprintf("%d GDOs", g), t)
	}
	return b.String(), nil
}

func writeTimingRow(b *strings.Builder, label string, t core.Timings) {
	fmt.Fprintf(b, "%-12s %14s %22s %12s %16s %10s\n",
		label, ms(t.DataAggregation), ms(t.Indexing), ms(t.LD), ms(t.LRTest), ms(t.Total()))
}

// Table3Row is one configuration of the resource-utilization table.
type Table3Row struct {
	GDOs      int
	SNPs      int
	CPU       time.Duration
	EnclaveKB int64
}

// Table3 measures the resource-utilization table: leader-enclave peak
// protected memory and protocol CPU time for each configuration. The paper
// reports a CPU share (<1%) of a mostly idle machine; in-process there is no
// idle time, so the CPU column reports busy core-milliseconds instead (see
// EXPERIMENTS.md).
func Table3(scale float64) ([]Table3Row, error) {
	var rows []Table3Row
	for _, g := range GDOGrid {
		for _, snps := range []int{1000, 10000} {
			w := Workload{SNPs: snps, Genomes: 14860, Scale: scale}
			rep, err := RunGenDPR(w, g, core.CollusionPolicy{})
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table3Row{
				GDOs:      g,
				SNPs:      snps,
				CPU:       rep.Timings.Total(),
				EnclaveKB: rep.PeakEnclaveBytes / 1024,
			})
		}
	}
	return rows, nil
}

// FormatTable3 renders Table3 rows as text.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %18s %20s\n", "Configuration", "CPU (core-ms)", "Enclave memory (KB)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %18s %20d\n",
			fmt.Sprintf("%d GDOs / %d SNPs", r.GDOs, r.SNPs), ms(r.CPU), r.EnclaveKB)
	}
	return b.String()
}

// Table4GDOs is the federation size of the Table 4 comparison.
const Table4GDOs = 3

// Table4Row is one workload of the selection-correctness comparison.
type Table4Row struct {
	Workload    Workload
	Centralized core.Selection
	GenDPR      core.Selection
	Naive       core.Selection
}

// Table4 measures the selection-correctness comparison: retained SNPs after
// each phase for the centralized baseline, GenDPR on Table4GDOs members, and
// the naïve protocol. GenDPR must select exactly what the centralized
// baseline selects; any difference is an error, not a row.
func Table4(scale float64) ([]Table4Row, error) {
	var rows []Table4Row
	for _, w := range Table4Workloads(scale) {
		central, err := RunCentralized(w)
		if err != nil {
			return nil, err
		}
		dist, err := RunGenDPR(w, Table4GDOs, core.CollusionPolicy{})
		if err != nil {
			return nil, err
		}
		if !dist.Selection.Equal(central.Selection) {
			return nil, fmt.Errorf("%s: GenDPR selection %v differs from the centralized %v",
				w.Label(), dist.Selection, central.Selection)
		}
		naive, err := RunNaive(w, Table4GDOs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table4Row{Workload: w, Centralized: central.Selection, GenDPR: dist.Selection, Naive: naive.Selection})
	}
	return rows, nil
}

// FormatTable4 renders Table4 rows as text.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %-28s %-28s %s\n", "# of genomes / SNPs", "Centralized", "GenDPR", "Naive distributed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-44s %-28s %-28s %s\n", r.Workload.Label(), r.Centralized, r.GenDPR, r.Naive)
	}
	return b.String()
}

// Table5Row is one collusion-tolerance result.
type Table5Row struct {
	G            int
	FLabel       string
	SafeCT       int
	SafeBase     int
	Vulnerable   int
	SafePercent  float64
	VulnPercent  float64
	RunningTime  time.Duration
	Combinations int
}

// Table5 evaluates collusion-tolerant GenDPR for G in gGrid with every fixed
// f plus the conservative mode, on the paper's 10,000-SNP / 14,860-genome
// workload.
func Table5(scale float64, gGrid []int) ([]Table5Row, error) {
	w := Workload{SNPs: 10000, Genomes: 14860, Scale: scale}
	var rows []Table5Row
	for _, g := range gGrid {
		base, err := RunGenDPR(w, g, core.CollusionPolicy{})
		if err != nil {
			return nil, err
		}
		baseSafe := len(base.Selection.Safe)

		policies := make([]core.CollusionPolicy, 0, g)
		labels := make([]string, 0, g)
		for f := 1; f < g; f++ {
			policies = append(policies, core.CollusionPolicy{F: f})
			labels = append(labels, fmt.Sprintf("f=%d", f))
		}
		policies = append(policies, core.CollusionPolicy{Conservative: true})
		labels = append(labels, fmt.Sprintf("f={1..%d}", g-1))

		baseSet := make(map[int]bool, baseSafe)
		for _, l := range base.Selection.Safe {
			baseSet[l] = true
		}
		for i, policy := range policies {
			start := time.Now()
			rep, err := RunGenDPR(w, g, policy)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			safe := len(rep.Selection.Safe)
			// Vulnerable = SNPs the unprotected release would publish that
			// do not survive collusion-tolerant evaluation (set difference,
			// as the per-run LR column sets differ).
			kept := 0
			for _, l := range rep.Selection.Safe {
				if baseSet[l] {
					kept++
				}
			}
			vuln := baseSafe - kept
			row := Table5Row{
				G:            g,
				FLabel:       labels[i],
				SafeCT:       safe,
				SafeBase:     baseSafe,
				Vulnerable:   vuln,
				RunningTime:  elapsed,
				Combinations: rep.Combinations,
			}
			if baseSafe > 0 {
				row.SafePercent = 100 * float64(kept) / float64(baseSafe)
				row.VulnPercent = 100 * float64(vuln) / float64(baseSafe)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatTable5 renders Table5 rows as text.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %26s %30s %16s %14s\n",
		"Settings", "# safe SNPs (tolerant)", "# vulnerable w/o tolerance", "Running (ms)", "Combinations")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %19d (%5.1f%%) %23d (%5.1f%%) %16s %14d\n",
			fmt.Sprintf("G=%d, %s", r.G, r.FLabel),
			r.SafeCT, r.SafePercent, r.Vulnerable, r.VulnPercent,
			ms(r.RunningTime), r.Combinations)
	}
	return b.String()
}

// Command experiments regenerates every table and figure of the paper's
// evaluation (Table 3, Figures 5a/5b/6a/6b, Table 4, Table 5) and the
// Section 7.1 bandwidth analysis. Each experiment prints the same rows the
// paper reports; EXPERIMENTS.md records a captured run and compares it with
// the published numbers. It is the one generator of those tables: the
// exact columns of its scale-1 output are pinned by internal/bench's
// TestExactColumnsGolden.
//
// The -scale flag shrinks genome counts for quick runs (default 0.1); pass
// -scale 1 for the paper's full sizes. Table 4 fails the run (exit 1) when
// GenDPR's selection differs from the centralized one.
//
// Usage:
//
//	experiments                 # everything at scale 0.1
//	experiments -only table4    # one experiment
//	experiments -scale 1 -only fig6b
//	experiments -only table5 -table5-g 10
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"gendpr/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// experiment is one table or figure: its heading and the rendered rows.
type experiment struct {
	title  string
	render func() (string, error)
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		scale = fs.Float64("scale", 0.1, "genome-count scale factor (1 = paper sizes)")
		only  = fs.String("only", "", "run a single experiment: table3, fig5a, fig5b, fig6a, fig6b, table4, table5, bandwidth")
		gGrid = fs.String("table5-g", "3,4,5", "federation sizes for table5")
		reps  = fs.Int("reps", 5, "repetitions averaged per running-time figure (the paper uses 5)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	experiments := map[string]experiment{
		"table3": {"Table 3 — GenDPR average resource utilization", func() (string, error) {
			rows, err := bench.Table3(*scale)
			return bench.FormatTable3(rows), err
		}},
		"table4": {fmt.Sprintf("Table 4 — retained SNPs after each verification phase (%d GDOs)", bench.Table4GDOs), func() (string, error) {
			rows, err := bench.Table4(*scale)
			return bench.FormatTable4(rows), err
		}},
		"table5": {"Table 5 — collusion-tolerant GenDPR (10,000 SNPs, 14,860-genome workload)", func() (string, error) {
			grid, err := parseGrid(*gGrid)
			if err != nil {
				return "", err
			}
			rows, err := bench.Table5(*scale, grid)
			return bench.FormatTable5(rows), err
		}},
		"bandwidth": {"Section 7.1 — bandwidth: protocol traffic vs shipping genomes", func() (string, error) {
			rows, err := bench.Bandwidth(*scale)
			return bench.FormatBandwidth(rows), err
		}},
	}
	for name, w := range bench.FigureWorkloads(*scale) {
		experiments[name] = experiment{
			fmt.Sprintf("Figure %s — running time breakdown", strings.TrimPrefix(name, "fig")),
			func() (string, error) { return bench.FigureTable(w, *reps) },
		}
	}

	names := []string{*only}
	if *only == "" {
		names = names[:0]
		for name := range experiments {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	for _, name := range names {
		exp, ok := experiments[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Printf("\n%s\n%s\n%s\n", strings.Repeat("=", len(exp.title)), exp.title, strings.Repeat("=", len(exp.title)))
		start := time.Now()
		out, err := exp.render()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Print(out)
		fmt.Printf("(experiment wall time %v)\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// parseGrid reads the comma-separated -table5-g federation sizes.
func parseGrid(spec string) ([]int, error) {
	var grid []int
	for _, part := range strings.Split(spec, ",") {
		var g int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &g); err != nil {
			return nil, fmt.Errorf("bad -table5-g entry %q", part)
		}
		grid = append(grid, g)
	}
	return grid, nil
}

// Command benchmark is the GenDPR benchmark: four workloads at the paper's
// scale over the deployed stack (loopback TCP, mutual attestation, AES-GCM,
// fsync'd checkpoints, the assessment service), end-to-end metrics from
// untraced runs and per-layer metrics from a traced pass whose spans are all
// taken from outside the program. See README.md beside this file.
//
// Usage:
//
//	go run ./benchmark [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-out file]
//	go run ./benchmark -compare a.jsonl b.jsonl
//
// Each workload prints every metric by name with its unit and ends with one
// JSON line {"correct", "attempted", "failed", "metrics"}; the exit code is
// non-zero when an output, a ledger or a tear-down check failed.
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
)

//go:embed golden.json
var goldenFS embed.FS

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "workload to run: fed3_base, fed5_collusion, svc_cold, svc_replay or all")
		seed     = fs.Int64("seed", 42, "draws which genomes each GDO holds and the open loop's arrival schedule")
		cohort   = fs.Int64("cohort-seed", 42, "generator seed of the population; golden.json pins 42 and 7")
		secs     = fs.Float64("seconds", 20, "length of the timed section")
		trace    = fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics, 0 the end-to-end metrics")
		out      = fs.String("out", "", "append each run's full record to this JSON-lines file")
		workDir  = fs.String("workdir", "benchmark/out", "scratch directory for checkpoints and span files")
		compare  = fs.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		if err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive, -trace 0 or 1, and there are no positional arguments")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	}
	code := 0
	for _, name := range names {
		p, err := paperParams(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		p.CohortSeed = *cohort
		res, err := runWorkload(runConfig{P: p, Seed: *seed, Seconds: *secs, Trace: *trace == 1, WorkDir: *workDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if *out != "" {
			if err := appendRecord(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		if err := printResult(res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// printResult writes the human-readable table and, as the last line, the
// result object the driver reads.
func printResult(res *result) error {
	rec := res.Record
	pass := "end-to-end metrics (untraced)"
	defs := endToEnd
	if rec.Trace {
		pass, defs = "per-layer metrics (traced pass)", perLayer
	}
	fmt.Printf("== %s  seed %d  %.0f s  %s\n", rec.Workload, rec.Seed, rec.Seconds, pass)
	fmt.Printf("   commit %s, %s, nproc %d, GOMAXPROCS %d, load1 %.2f at start\n",
		rec.Commit, rec.GoVersion, rec.NumCPU, rec.GOMAXPROCS, rec.Load1Start)
	fmt.Printf("   oracle selection %s, L_safe sha256 %.16s…\n", strings.Join(rec.Selection, " | "), rec.SafeSHA256)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		line := fmt.Sprintf("   %-34s %14.6g %-5s", d.Name, m.Value, m.Unit)
		if m.N > 1 {
			line += fmt.Sprintf("  n=%d q1=%.6g q3=%.6g", m.N, m.Q1, m.Q3)
		}
		if len(m.Blocks) > 1 {
			line += fmt.Sprintf("  block spread %.3f", m.BlockSpread)
		}
		fmt.Println(line)
	}
	if len(res.Shares) > 0 {
		fmt.Println("   layer shares of traced request wall time (exclusive: the innermost open span gets the instant):")
		names := make([]string, 0, len(res.Shares))
		for name := range res.Shares {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return res.Shares[names[i]] > res.Shares[names[j]] })
		for _, name := range names {
			fmt.Printf("     %-20s %6.1f%%\n", shareLayer(name), 100*res.Shares[name])
		}
	}
	if rec.Noisy {
		fmt.Printf("   NOISY: %s\n", strings.Join(rec.NoisyWhy, "; "))
	}
	for _, p := range res.Problems {
		fmt.Printf("   FAILED: %s\n", p)
	}
	last := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, make(map[string]driverMetric)}
	for _, d := range defs {
		last.Metrics[d.Name] = driverMetric{res.Metrics[d.Name].Value, d.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// shareLayer names what a span category's exclusive time means as a layer.
func shareLayer(category string) string {
	switch category {
	case "request":
		return "service/harness self"
	case "backend.run":
		return "leader self (core)"
	case "rpc.counts", "rpc.pairs", "rpc.lr", "rpc.result":
		return "transport " + category
	}
	return category
}

func appendRecord(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// buildCommit is the VCS revision the binary was built from, when the build
// stamped one (a checkout without .git does not).
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// goldenDigest returns the pinned L_safe digest for a paper-scale run over a
// pinned population.
func goldenDigest(rc runConfig) (string, bool) {
	p, err := paperParams(rc.P.Name)
	p.CohortSeed = rc.P.CohortSeed
	if err != nil || p != rc.P || rc.wrongOracle {
		return "", false
	}
	raw, err := goldenFS.ReadFile("golden.json")
	if err != nil {
		return "", false
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		return "", false
	}
	// Keyed by population and run seed: with collusion tolerance the
	// selection depends on which genomes each GDO holds.
	want, ok := golden[rc.P.Name][fmt.Sprintf("%d/%d", rc.P.CohortSeed, rc.Seed)]
	return want, ok
}

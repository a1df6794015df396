// Command gendpr-lint runs the GenDPR project-invariant static-analysis
// suite (internal/analysis) over the module and exits non-zero when any
// invariant is violated. It is the lint half of scripts/check.sh, the
// repository's CI gate; STATIC_ANALYSIS.md documents each analyzer and how
// to acknowledge an intentional exception with //gendpr:allow.
//
// Usage:
//
//	gendpr-lint [-run names] [-skip names] [-json] [-v] [-baseline report.json] [./...] [dir ...]
//
// Every run loads and type-checks the whole module containing the working
// directory once, runs the selected analyzers once, and writes one report.
// Directory arguments restrict the report to packages under those paths; the
// full module is still loaded so cross-package type information stays
// complete. -run and -skip take comma-separated analyzer names; -json writes
// the findings as a machine-readable report to stdout (scripts/check.sh
// archives it as lint-report.json); -v adds per-package load timing and
// per-analyzer wall time to stderr. -baseline takes a previous -json report
// and fails only on findings absent from it (matched by file, analyzer, and
// message — not line, so unrelated edits shifting positions do not resurface
// acknowledged debt).
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure (including a
// working directory outside any Go module).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gendpr/internal/analysis"
)

func main() {
	verbose := flag.Bool("v", false, "list analyzers, packages, and per-analyzer timing")
	jsonOut := flag.Bool("json", false, "write findings as a JSON report to stdout")
	runNames := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	skipNames := flag.String("skip", "", "comma-separated analyzer names to skip")
	baseline := flag.String("baseline", "", "path to a previous -json report; only findings absent from it fail the run")
	flag.Parse()
	opts := lintOptions{
		verbose: *verbose, jsonOut: *jsonOut,
		runNames: *runNames, skipNames: *skipNames, baselinePath: *baseline,
	}
	failed, err := run(flag.Args(), opts, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gendpr-lint:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// jsonFinding is one diagnostic in the -json report. File is relative to the
// module root so the artifact is stable across checkouts.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the -json output envelope, and the format -baseline reads
// back. It deliberately carries no timings, so the report is a pure function
// of the module's content: the committed lint-report.json changes only when
// a finding or the analyzer list does. Timings go to stderr under -v.
type jsonReport struct {
	Module    string        `json:"module"`
	Analyzers []string      `json:"analyzers"`
	Findings  []jsonFinding `json:"findings"`
}

// lintOptions carries the parsed command line.
type lintOptions struct {
	verbose, jsonOut                  bool
	runNames, skipNames, baselinePath string
}

// run lints the module containing the working directory and writes the
// report to stdout (and -v timings and summaries to stderr). It reports
// whether any finding fails the run; err is a usage or load failure.
func run(args []string, opts lintOptions, stdout, stderr io.Writer) (failed bool, err error) {
	root, err := moduleRoot()
	if err != nil {
		return false, err
	}
	analyzers, err := selectAnalyzers(analysis.DefaultAnalyzers(), opts.runNames, opts.skipNames)
	if err != nil {
		return false, err
	}
	keep, err := dirFilter(root, args)
	if err != nil {
		return false, err
	}

	var loadLog io.Writer
	if opts.verbose {
		loadLog = stderr
	}
	mod, err := analysis.LoadModuleVerbose(root, loadLog)
	if err != nil {
		return false, err
	}
	if opts.verbose {
		fmt.Fprintf(stderr, "module %s: %d packages, %d analyzers\n",
			mod.Path, len(mod.Packages), len(analyzers))
		for _, p := range mod.Packages {
			if len(p.TypeErrors) > 0 {
				fmt.Fprintf(stderr, "  %s: %d type errors (syntactic checks only where types are missing)\n",
					p.Path, len(p.TypeErrors))
			}
		}
	}
	// The wall clock covers the analyzer run alone, so it describes the same
	// work as the summed per-analyzer CPU time; the load has its own line.
	runStart := time.Now()
	diags, stats := analysis.RunWithStats(mod, analyzers)
	runWall := time.Since(runStart)
	if opts.verbose {
		var cpu time.Duration
		for _, s := range stats {
			fmt.Fprintf(stderr, "  %-16s %8.1fms  %d finding(s)\n",
				s.Name, float64(s.Duration.Microseconds())/1000, s.Findings)
			cpu += s.Duration
		}
		fmt.Fprintf(stderr, "  analyzers total %.1fms wall, %.1fms cpu (%d workers, %.1fx)\n",
			float64(runWall.Microseconds())/1000, float64(cpu.Microseconds())/1000,
			runtime.GOMAXPROCS(0), float64(cpu)/float64(runWall))
	}

	kept := []jsonFinding{}
	for _, d := range diags {
		if !keep(d.Pos.Filename) {
			continue
		}
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		kept = append(kept, jsonFinding{
			File: rel, Line: d.Pos.Line, Column: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}

	// With -baseline, only findings absent from the previous report fail the
	// run; known debt is suppressed (matched by file+analyzer+message so a
	// finding does not count as new just because edits above it moved the
	// line). The -json report still carries every finding, so archiving it
	// regenerates the full baseline rather than shrinking it run over run.
	fail := kept
	if opts.baselinePath != "" {
		base, err := loadBaseline(opts.baselinePath)
		if err != nil {
			return false, err
		}
		fail = newFindings(kept, base)
	}

	if opts.jsonOut {
		report := jsonReport{Module: mod.Path, Findings: kept}
		for _, s := range stats {
			report.Analyzers = append(report.Analyzers, s.Name)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return false, err
		}
	} else {
		for _, f := range fail {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message)
		}
	}
	if baselined := len(kept) - len(fail); baselined > 0 {
		fmt.Fprintf(stderr, "gendpr-lint: %d baselined finding(s) suppressed (%s)\n", baselined, opts.baselinePath)
	}
	if len(fail) > 0 {
		if opts.baselinePath != "" {
			fmt.Fprintf(stderr, "gendpr-lint: %d finding(s) not in baseline\n", len(fail))
		} else {
			fmt.Fprintf(stderr, "gendpr-lint: %d finding(s)\n", len(fail))
		}
	}
	return len(fail) > 0, nil
}

// selectAnalyzers applies the -run and -skip name filters. Unknown names are
// an error (listing what exists) so a typo cannot silently disable a gate.
func selectAnalyzers(all []*analysis.Analyzer, runNames, skipNames string) ([]*analysis.Analyzer, error) {
	known := make(map[string]*analysis.Analyzer, len(all))
	var names []string
	for _, a := range all {
		known[a.Name] = a
		names = append(names, a.Name)
	}
	sort.Strings(names)
	parse := func(list string) (map[string]bool, error) {
		set := make(map[string]bool)
		for _, n := range strings.Split(list, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if known[n] == nil {
				return nil, fmt.Errorf("unknown analyzer %q (have: %s)", n, strings.Join(names, ", "))
			}
			set[n] = true
		}
		return set, nil
	}
	runSet, err := parse(runNames)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse(skipNames)
	if err != nil {
		return nil, err
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if len(runSet) > 0 && !runSet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("the -run/-skip combination selects no analyzers (have: %s)", strings.Join(names, ", "))
	}
	return out, nil
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s: gendpr-lint must run inside the module", dir)
		}
		dir = parent
	}
}

// dirFilter interprets the positional arguments: "./..." (or none) keeps
// everything, directory arguments keep findings under those directories.
func dirFilter(root string, args []string) (func(string) bool, error) {
	var dirs []string
	for _, a := range args {
		if a == "./..." || a == "..." {
			return func(string) bool { return true }, nil
		}
		abs, err := filepath.Abs(strings.TrimSuffix(a, "/..."))
		if err != nil {
			return nil, err
		}
		if info, err := os.Stat(abs); err != nil || !info.IsDir() {
			return nil, fmt.Errorf("%s is not a directory", a)
		}
		dirs = append(dirs, abs)
	}
	if len(dirs) == 0 {
		return func(string) bool { return true }, nil
	}
	return func(file string) bool {
		for _, d := range dirs {
			if file == d || strings.HasPrefix(file, d+string(filepath.Separator)) {
				return true
			}
		}
		return false
	}, nil
}

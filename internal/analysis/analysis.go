// Package analysis is GenDPR's project-invariant static-analysis framework.
// The Go compiler cannot see the invariants the paper's threat model rests
// on: privacy-critical randomness must be cryptographic, mutexes must not be
// held across blocking transport operations, statistical cutoffs must not
// use exact float equality, wire/transport errors must not be dropped, and
// WaitGroup choreography must be race-free. Each invariant is encoded as an
// Analyzer; cmd/gendpr-lint runs the default suite over the module and CI
// gates on a clean report (see STATIC_ANALYSIS.md).
//
// The framework is stdlib-only (go/ast, go/parser, go/types): analyzers see
// parsed files plus best-effort type information and report position-tagged
// diagnostics. Individual findings can be acknowledged in source with a
// justified directive on the flagged line or the line above:
//
//	//gendpr:allow(analyzer1,analyzer2): reason the invariant is upheld
//
// A directive without a reason is itself a diagnostic — suppressions must
// carry their justification so reviewers can audit them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Scope restricts an analyzer to part of the module. The zero Scope matches
// nothing; an analyzer with an empty Scopes slice runs everywhere.
type Scope struct {
	// PathPrefix matches a package import path exactly or as a
	// "/"-terminated prefix (so "a/b" covers "a/b" and "a/b/c", not "a/bc").
	PathPrefix string
	// Files, when non-empty, restricts the scope to these base file names
	// within matching packages.
	Files []string
}

func (s Scope) matches(pkgPath, base string) bool {
	if pkgPath != s.PathPrefix && !strings.HasPrefix(pkgPath, s.PathPrefix+"/") {
		return false
	}
	if len(s.Files) == 0 {
		return true
	}
	for _, f := range s.Files {
		if f == base {
			return true
		}
	}
	return false
}

// Analyzer is one project invariant: a named check over a package's files.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Scopes restricts where the analyzer applies; empty means the whole
	// module.
	Scopes []Scope
	// Run inspects the files the Pass exposes and reports findings.
	Run func(*Pass)
}

// Pass is one (analyzer, package) execution. Files holds only the files in
// the analyzer's scope; Pkg carries the full package, including best-effort
// type information (nil entries when type checking was incomplete —
// analyzers must degrade gracefully).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Mod is the module the package belongs to; module-global analyzers
	// (the taint suite) key shared state off it.
	Mod   *Module
	Pkg   *Package
	Files []*ast.File

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowDirective matches "//gendpr:allow(name1,name2): reason";
// allowPrefix catches every comment that tries to be a directive (including
// a bare "//gendpr:allow") so malformed ones are reported, never ignored.
var (
	allowDirective = regexp.MustCompile(`^//gendpr:allow\(([^)]*)\)(.*)$`)
	allowPrefix    = regexp.MustCompile(`^//gendpr:allow\b`)
)

// suppressions maps file -> line -> analyzer names allowed on that line.
type suppressions map[string]map[int][]string

// collectSuppressions scans a file's comments for allow directives. A
// malformed directive (no reason after the colon) is reported as a
// diagnostic under the pseudo-analyzer "directive" so it cannot silently
// disable a check.
func collectSuppressions(fset *token.FileSet, files []*ast.File, sup suppressions, diags *[]Diagnostic) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !allowPrefix.MatchString(c.Text) {
					continue
				}
				pos := fset.Position(c.Pos())
				m := allowDirective.FindStringSubmatch(c.Text)
				if m == nil {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "directive",
						Message:  "gendpr:allow directive needs analyzer names and a justification: //gendpr:allow(name): reason",
					})
					continue
				}
				rest := strings.TrimSpace(m[2])
				if !strings.HasPrefix(rest, ":") || strings.TrimSpace(rest[1:]) == "" {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "directive",
						Message:  "gendpr:allow directive needs a justification: //gendpr:allow(name): reason",
					})
					continue
				}
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					sup[pos.Filename] = byLine
				}
				for _, name := range strings.Split(m[1], ",") {
					name = strings.TrimSpace(name)
					if name != "" {
						byLine[pos.Line] = append(byLine[pos.Line], name)
					}
				}
			}
		}
	}
}

func (s suppressions) allows(d Diagnostic) bool {
	byLine := s[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, name := range byLine[line] {
			if name == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// AnalyzerStats records one analyzer's aggregate execution over the module:
// total wall time across packages and how many findings survived
// suppression. The first analyzer to read a shared engine — the call graph,
// the held-lock walk, the taint fixpoint — pays its one-time construction,
// which its Duration reflects.
type AnalyzerStats struct {
	Name     string
	Duration time.Duration
	Findings int
}

// Run applies every analyzer to every package in the module and returns the
// unsuppressed findings sorted by position, with per-analyzer timing (for
// -v diagnostics and CI artifacts) in the analyzers' order.
//
// Packages fan out across a GOMAXPROCS-bounded pool; within one package the
// analyzers run serially. Each task reports into its own diagnostic slice
// (merged in package order, then position-sorted, so the output is identical
// to a serial run). State shared across packages — the module's call graph
// and held-lock walk, the taint registry's engine — is built once under its
// own guard; an analyzer's Duration therefore includes any time spent
// blocked on that one-time construction.
func Run(mod *Module, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerStats) {
	var diags []Diagnostic
	sup := make(suppressions)
	for _, pkg := range mod.Packages {
		collectSuppressions(pkg.Fset, pkg.Files, sup, &diags)
	}
	stats := make([]AnalyzerStats, len(analyzers))
	for i, a := range analyzers {
		stats[i].Name = a.Name
	}

	type pkgResult struct {
		diags []Diagnostic
		durs  []time.Duration
	}
	results := make([]pkgResult, len(mod.Packages))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(mod.Packages) {
		workers = len(mod.Packages)
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range idx {
				pkg := mod.Packages[j]
				res := &results[j]
				res.durs = make([]time.Duration, len(analyzers))
				for i, a := range analyzers {
					files := scopedFiles(a, pkg)
					if len(files) == 0 {
						continue
					}
					pass := &Pass{Analyzer: a, Fset: pkg.Fset, Mod: mod, Pkg: pkg, Files: files, diags: &res.diags}
					start := time.Now()
					a.Run(pass)
					res.durs[i] += time.Since(start)
				}
			}
		}()
	}
	for j := range mod.Packages {
		idx <- j
	}
	close(idx)
	wg.Wait()
	for j := range results {
		diags = append(diags, results[j].diags...)
		for i := range analyzers {
			stats[i].Duration += results[j].durs[i]
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		if sup.allows(d) {
			continue
		}
		kept = append(kept, d)
		for i := range stats {
			if stats[i].Name == d.Analyzer {
				stats[i].Findings++
				break
			}
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return kept, stats
}

func scopedFiles(a *Analyzer, pkg *Package) []*ast.File {
	if len(a.Scopes) == 0 {
		return pkg.Files
	}
	var out []*ast.File
	for _, f := range pkg.Files {
		base := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		for _, s := range a.Scopes {
			if s.matches(pkg.Path, base) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// DefaultAnalyzers returns the project invariant suite with GenDPR's policy
// baked in: which packages are privacy-critical, where float cutoffs live,
// and which call names carry must-check errors. STATIC_ANALYSIS.md documents
// the mapping from each analyzer to the paper's threat model.
func DefaultAnalyzers() []*Analyzer {
	privacyCritical := []Scope{
		{PathPrefix: "gendpr/internal/oblivious"},
		{PathPrefix: "gendpr/internal/enclave"},
		{PathPrefix: "gendpr/internal/crand"},
	}
	floatCutoffs := []Scope{
		{PathPrefix: "gendpr/internal/stats"},
		{PathPrefix: "gendpr/internal/lrtest"},
		{PathPrefix: "gendpr/internal/core"},
	}
	taint := NewTaintRegistry(DefaultTaintSpec())
	return []*Analyzer{
		NewCryptoRand(privacyCritical),
		NewLockAcrossSend(nil),
		NewFloatEq(floatCutoffs),
		NewErrDrop(nil),
		NewWGMisuse(nil),
		NewNakedRecv([]Scope{{PathPrefix: "gendpr/internal/federation"}}),
		NewCtxDeadline([]Scope{
			{PathPrefix: "gendpr/internal/federation"},
			{PathPrefix: "gendpr/internal/service"},
			{PathPrefix: "gendpr/internal/checkpoint"},
			{PathPrefix: "gendpr/cmd"},
		}),
		NewGoroLeak([]Scope{
			{PathPrefix: "gendpr/internal/service"},
			{PathPrefix: "gendpr/internal/federation"},
			{PathPrefix: "gendpr/internal/core"},
		}),
		NewMustRelease(nil, DefaultReleasePairs()),
		NewLockOrder(nil),
		NewSecretFlow(taint),
		NewLogLeak(taint),
		NewCheckpointPlain(taint),
		NewObliviousFlow(taint),
		NewDivergentFloat(taint),
	}
}

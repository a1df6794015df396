package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrNoModule reports that the load directory has no go.mod. Callers treat
// it as a usage error (gendpr-lint exits 2 immediately) rather than an
// analysis result: without a module root there is nothing to lint.
var ErrNoModule = errors.New("analysis: not a module root (no go.mod)")

// Package is one parsed (and, when possible, type-checked) package. Test
// files are excluded: the invariants guard production code, and tests
// legitimately use deterministic randomness and exact comparisons.
type Package struct {
	// Path is the import path ("gendpr/internal/oram").
	Path string
	// Dir is the absolute directory.
	Dir string
	// Fset is the module-wide file set.
	Fset *token.FileSet
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types and Info carry the type-check result. They are non-nil even
	// when checking was incomplete; TypeErrors records what went wrong so
	// analyzers can degrade to syntactic checks.
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// Module is a loaded Go module: every package under the root, in dependency
// order (imports before importers).
type Module struct {
	Path     string
	Dir      string
	Fset     *token.FileSet
	Packages []*Package
}

// skipDir reports directories the loader never descends into.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// LoadModule parses and type-checks every package of the module rooted at
// dir (the directory containing go.mod). Type-check failures in one package
// do not fail the load: they are recorded on the package and checking
// continues, so syntactic analyzers still see the whole module. A directory
// without go.mod fails fast with ErrNoModule.
func LoadModule(dir string) (*Module, error) {
	return LoadModuleVerbose(dir, nil)
}

// LoadModuleVerbose is LoadModule with optional progress logging: when log
// is non-nil, per-package parse and type-check wall times are written to it
// (the type-check of a cold module dominates gendpr-lint's runtime, and the
// per-package split shows where).
func LoadModuleVerbose(dir string, log io.Writer) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modBytes, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNoModule, dir)
	}
	m := moduleLine.FindSubmatch(modBytes)
	if m == nil {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", dir)
	}
	mod := &Module{Path: string(m[1]), Dir: abs, Fset: token.NewFileSet()}

	byPath := make(map[string]*Package)
	err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != abs && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		pkg, err := parseDir(mod.Fset, path, importPathFor(mod, abs, path))
		if err != nil {
			return err
		}
		if pkg != nil {
			byPath[pkg.Path] = pkg
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	mod.Packages = topoSort(byPath)
	typeCheck(mod, byPath, log)
	return mod, nil
}

func importPathFor(mod *Module, root, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return mod.Path
	}
	return mod.Path + "/" + filepath.ToSlash(rel)
}

// parseDir parses the non-test Go files of one directory that the host's
// build would compile; nil when the directory holds no Go package. Build
// constraints and _GOOS/_GOARCH file names are honoured as `go build`
// honours them, so a package with per-architecture files (lrtest's kernels)
// type-checks as the binary that runs here, not as every variant at once.
func parseDir(fset *token.FileSet, dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", filepath.Join(dir, name), err)
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	pkg := &Package{Path: path, Dir: dir, Fset: fset}
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", filepath.Join(dir, name), err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	return pkg, nil
}

// imports lists the package's import paths.
func (p *Package) imports() []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[path] {
				continue
			}
			seen[path] = true
			out = append(out, path)
		}
	}
	return out
}

// topoSort orders packages so every intra-module import precedes its
// importer (cycles cannot occur in a buildable module; any residue is
// appended in path order).
func topoSort(byPath map[string]*Package) []*Package {
	var order []*Package
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var visit func(string)
	visit = func(path string) {
		pkg := byPath[path]
		if pkg == nil || state[path] != 0 {
			return
		}
		state[path] = 1
		for _, dep := range pkg.imports() {
			visit(dep)
		}
		state[path] = 2
		order = append(order, pkg)
	}
	for _, p := range paths {
		visit(p)
	}
	return order
}

// chainImporter resolves intra-module imports from the already-checked
// packages and everything else (the standard library) by type-checking its
// source via go/importer's "source" compiler support.
type chainImporter struct {
	local map[string]*Package
	std   types.ImporterFrom
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := c.local[path]; ok {
		if p.Types == nil {
			return nil, fmt.Errorf("analysis: %s not yet type-checked (import cycle?)", path)
		}
		return p.Types, nil
	}
	return c.std.ImportFrom(path, dir, mode)
}

// lockedImporter serializes access to go/importer's "source" importer, which
// is not safe for concurrent use. Intra-module imports never reach it (the
// chainImporter answers those from already-checked packages), so the lock
// only gates standard-library resolution — and the importer caches each std
// package after its first load, so contention fades as the check warms up.
type lockedImporter struct {
	mu  sync.Mutex
	imp types.ImporterFrom
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *lockedImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.ImportFrom(path, dir, mode)
}

// typeCheck runs go/types over every package, scheduling a package as soon
// as its intra-module imports are checked (a wavefront over the dependency
// DAG) and fanning the ready set across a GOMAXPROCS-bounded pool. Failures
// are recorded on the package rather than propagated. A non-nil log receives
// per-package wall-time lines plus a cpu-vs-wall summary.
func typeCheck(mod *Module, byPath map[string]*Package, log io.Writer) {
	std, _ := importer.ForCompiler(mod.Fset, "source", nil).(types.ImporterFrom)
	imp := &chainImporter{local: byPath, std: &lockedImporter{imp: std}}

	// pending counts each package's unchecked intra-module imports;
	// dependents inverts the edge so a completion can release its importers.
	pending := make(map[string]int, len(mod.Packages))
	dependents := make(map[string][]*Package)
	for _, pkg := range mod.Packages {
		n := 0
		for _, dep := range pkg.imports() {
			if dep != pkg.Path && byPath[dep] != nil {
				n++
				dependents[dep] = append(dependents[dep], pkg)
			}
		}
		pending[pkg.Path] = n
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(mod.Packages) {
		workers = len(mod.Packages)
	}
	if workers < 1 {
		workers = 1
	}

	type result struct {
		pkg *Package
		dur time.Duration
	}
	ready := make(chan *Package, len(mod.Packages))
	done := make(chan result, len(mod.Packages))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pkg := range ready {
				start := time.Now()
				checkPackage(mod.Fset, pkg, imp)
				done <- result{pkg, time.Since(start)}
			}
		}()
	}

	// The coordinator owns pending and the log writer; workers only check
	// packages. Channel hand-off orders a dependency's published Types
	// before any dependent's read.
	wallStart := time.Now()
	scheduled := 0
	for _, pkg := range mod.Packages {
		if pending[pkg.Path] == 0 {
			scheduled++
			ready <- pkg
		}
	}
	var cpu time.Duration
	for finished := 0; finished < scheduled; finished++ {
		res := <-done
		cpu += res.dur
		if log != nil {
			fmt.Fprintf(log, "  load %-40s %8.1fms (%d files)\n",
				res.pkg.Path, float64(res.dur.Microseconds())/1000, len(res.pkg.Files))
		}
		for _, dep := range dependents[res.pkg.Path] {
			pending[dep.Path]--
			if pending[dep.Path] == 0 {
				scheduled++
				ready <- dep
			}
		}
	}
	close(ready)
	wg.Wait()

	// Import-cycle residue never reaches pending == 0; check it here so the
	// packages still record their errors, as the serial loop did.
	for _, pkg := range mod.Packages {
		if pending[pkg.Path] > 0 {
			checkPackage(mod.Fset, pkg, imp)
		}
	}
	if log != nil {
		wall := time.Since(wallStart)
		fmt.Fprintf(log, "  load total %.1fms wall, %.1fms cpu across %d packages (%d workers, %.1fx)\n",
			float64(wall.Microseconds())/1000, float64(cpu.Microseconds())/1000,
			len(mod.Packages), workers, float64(cpu)/float64(wall))
	}
}

func checkPackage(fset *token.FileSet, pkg *Package, imp types.Importer) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
}

// LoadPackageDir loads a single directory as one standalone package under
// the given import path, resolving imports from the standard library only.
// It backs the analyzer fixture tests, which lint self-contained testdata
// packages.
func LoadPackageDir(dir, path string) (*Package, error) {
	fset := token.NewFileSet()
	pkg, err := parseDir(fset, dir, path)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	std, _ := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	checkPackage(fset, pkg, &chainImporter{local: nil, std: std})
	return pkg, nil
}

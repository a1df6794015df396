package analysis

import (
	"bufio"
	"errors"
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// wantRe extracts expectations of the form: want "substring"
var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// fixtureExpectations scans a fixture directory's Go files for // want
// comments, keyed by file:line.
func fixtureExpectations(t *testing.T, dir string) map[string][]string {
	t.Helper()
	want := make(map[string][]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				key := fmt.Sprintf("%s:%d", path, line)
				want[key] = append(want[key], m[1])
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return want
}

// runFixture lints one testdata package with one analyzer and compares the
// diagnostics against the // want expectations, both directions.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := LoadPackageDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	mod := &Module{Path: "fixture", Dir: dir, Fset: pkg.Fset, Packages: []*Package{pkg}}
	diags, _ := Run(mod, []*Analyzer{a})

	want := fixtureExpectations(t, dir)
	matched := make(map[string]int)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, w := range want[key] {
			if strings.Contains(d.Message, w) {
				found = true
				matched[key]++
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range want {
		if matched[key] < len(ws) {
			t.Errorf("%s: expected diagnostic(s) %q not reported", key, ws)
		}
	}
	if len(want) == 0 {
		t.Fatalf("fixture %s has no // want expectations; it would pass vacuously", name)
	}
}

func fixtureScope(name string) []Scope {
	return []Scope{{PathPrefix: "fixture/" + name}}
}

func TestCryptoRandFixture(t *testing.T) {
	runFixture(t, NewCryptoRand(fixtureScope("cryptorand")), "cryptorand")
}

func TestLockAcrossSendFixture(t *testing.T) {
	runFixture(t, NewLockAcrossSend(nil), "lockacrosssend")
}

// TestLockAcrossSendWithoutTypes: without type information a niladic
// Lock/Unlock is tracked by its rendered receiver, so the held-set walk still
// runs — and a Lock method on a non-mutex type can no longer be told apart.
func TestLockAcrossSendWithoutTypes(t *testing.T) {
	dir := filepath.Join("testdata", "src", "lockacrosssend")
	pkg, err := LoadPackageDir(dir, "fixture/lockacrosssend")
	if err != nil {
		t.Fatal(err)
	}
	pkg.Info = nil
	mod := &Module{Path: "fixture", Dir: dir, Fset: pkg.Fset, Packages: []*Package{pkg}}
	diags, _ := Run(mod, []*Analyzer{NewLockAcrossSend(nil)})
	var underMutex, underFake bool
	for _, d := range diags {
		underMutex = underMutex || strings.Contains(d.Message, "channel send while n.mu is locked")
		underFake = underFake || strings.Contains(d.Message, "call to c.Send while f is locked")
	}
	if !underMutex || !underFake {
		t.Errorf("untyped walk: send under n.mu reported %v, send under fakeLocker reported %v; want both", underMutex, underFake)
	}
}

func TestFloatEqFixture(t *testing.T) {
	runFixture(t, NewFloatEq(nil), "floateq")
}

func TestErrDropFixture(t *testing.T) {
	runFixture(t, NewErrDrop(nil), "errdrop")
}

func TestWGMisuseFixture(t *testing.T) {
	runFixture(t, NewWGMisuse(nil), "wgmisuse")
}

func TestNakedRecvFixture(t *testing.T) {
	runFixture(t, NewNakedRecv(nil), "nakedrecv")
}

func TestCtxDeadlineFixture(t *testing.T) {
	runFixture(t, NewCtxDeadline(nil), "ctxdeadline")
}

func TestGoroLeakFixture(t *testing.T) {
	runFixture(t, NewGoroLeak(nil), "goroleak")
}

func TestLockOrderFixture(t *testing.T) {
	runFixture(t, NewLockOrder(nil), "lockorder")
}

func TestMustReleaseFixture(t *testing.T) {
	// The fixture cannot import the real transport package, so the test
	// registers the fixture's own acquire function alongside the built-in
	// pairs.
	pairs := append(DefaultReleasePairs(), ReleasePair{
		Fn: "fixture/mustrelease.acquire", Result: 0, Release: "Close", Kind: "fixture resource",
	})
	runFixture(t, NewMustRelease(nil, pairs), "mustrelease")
}

func TestSecretFlowFixture(t *testing.T) {
	runFixture(t, NewSecretFlow(NewTaintRegistry(DefaultTaintSpec())), "secretflow")
}

func TestLogLeakFixture(t *testing.T) {
	runFixture(t, NewLogLeak(NewTaintRegistry(DefaultTaintSpec())), "logleak")
}

func TestCheckpointPlainFixture(t *testing.T) {
	// The fixture cannot import the real checkpoint package, so the test
	// registers the fixture's own persistence function as the checkpoint
	// sink and adds the fixture package to the structural scan.
	spec := DefaultTaintSpec()
	spec.Sinks["fixture/checkpointplain.saveState"] = SinkSpec{Kind: "a checkpoint (saveState)", ConnArg: -1, Checkpoint: true}
	spec.CheckpointStructPkgs = append(spec.CheckpointStructPkgs, "fixture/checkpointplain")
	spec.SourceFuncs["fixture/checkpointplain.sumKernel"] = ClassAggregate
	runFixture(t, NewCheckpointPlain(NewTaintRegistry(spec)), "checkpointplain")
}

func TestObliviousFlowFixture(t *testing.T) {
	// The fixture package stands in for the access-pattern-critical scope.
	// No Barriers table entries: ctSelect/ctEq earn barrier status purely
	// through their //gendpr:oblivious annotations.
	spec := DefaultTaintSpec()
	spec.Oblivious = &ObliviousSpec{Scopes: []Scope{{PathPrefix: "fixture/obliviousflow"}}}
	runFixture(t, NewObliviousFlow(NewTaintRegistry(spec)), "obliviousflow")
}

func TestDivergentFloatFixture(t *testing.T) {
	// The fixture cannot import the real stats package, so the test
	// registers the fixture's own statistics as order-sensitive sinks: a
	// function and a method.
	spec := DefaultTaintSpec()
	spec.OrderSinks["fixture/divergentfloat.statMAF"] = "statMAF (fixture statistic)"
	spec.OrderSinks["(*fixture/divergentfloat.meanStat).mean"] = "meanStat.mean (fixture statistic)"
	runFixture(t, NewDivergentFloat(NewTaintRegistry(spec)), "divergentfloat")
}

// TestScopeExcludesOtherPackages: an analyzer scoped elsewhere must not
// fire on the fixture.
func TestScopeExcludesOtherPackages(t *testing.T) {
	dir := filepath.Join("testdata", "src", "cryptorand")
	pkg, err := LoadPackageDir(dir, "fixture/cryptorand")
	if err != nil {
		t.Fatal(err)
	}
	mod := &Module{Path: "fixture", Dir: dir, Fset: pkg.Fset, Packages: []*Package{pkg}}
	a := NewCryptoRand([]Scope{{PathPrefix: "fixture/otherpkg"}})
	if diags, _ := Run(mod, []*Analyzer{a}); len(diags) != 0 {
		t.Fatalf("out-of-scope analyzer reported %v", diags)
	}
}

func TestScopeMatching(t *testing.T) {
	cases := []struct {
		scope Scope
		pkg   string
		base  string
		want  bool
	}{
		{Scope{PathPrefix: "a/b"}, "a/b", "x.go", true},
		{Scope{PathPrefix: "a/b"}, "a/b/c", "x.go", true},
		{Scope{PathPrefix: "a/b"}, "a/bc", "x.go", false},
		{Scope{PathPrefix: "a/b", Files: []string{"y.go"}}, "a/b", "x.go", false},
		{Scope{PathPrefix: "a/b", Files: []string{"x.go"}}, "a/b", "x.go", true},
	}
	for _, c := range cases {
		if got := c.scope.matches(c.pkg, c.base); got != c.want {
			t.Errorf("%+v.matches(%q, %q) = %v, want %v", c.scope, c.pkg, c.base, got, c.want)
		}
	}
}

// TestMalformedDirective: an allow directive without a justification is
// itself a finding.
func TestMalformedDirective(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

func f(a, b float64) bool {
	//gendpr:allow(floateq)
	return a == b
}
`
	if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadPackageDir(dir, "fixture/malformed")
	if err != nil {
		t.Fatal(err)
	}
	mod := &Module{Path: "fixture", Dir: dir, Fset: pkg.Fset, Packages: []*Package{pkg}}
	diags, _ := Run(mod, []*Analyzer{NewFloatEq(nil)})
	var directive, floateq bool
	for _, d := range diags {
		switch d.Analyzer {
		case "directive":
			directive = true
		case "floateq":
			floateq = true
		}
	}
	if !directive {
		t.Error("missing-justification directive not reported")
	}
	if !floateq {
		t.Error("reasonless directive must not suppress the finding")
	}
}

// TestJustifiedDirectiveSuppresses: with a reason, the finding on the next
// line is silenced.
func TestJustifiedDirectiveSuppresses(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

func f(a, b float64) bool {
	//gendpr:allow(floateq): fixture proves bitwise identity is intended here
	return a == b
}
`
	if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadPackageDir(dir, "fixture/justified")
	if err != nil {
		t.Fatal(err)
	}
	mod := &Module{Path: "fixture", Dir: dir, Fset: pkg.Fset, Packages: []*Package{pkg}}
	if diags, _ := Run(mod, []*Analyzer{NewFloatEq(nil)}); len(diags) != 0 {
		t.Fatalf("justified directive did not suppress: %v", diags)
	}
}

// The repository itself, loaded and type-checked once for every test that
// needs the whole module (the load dominates this package's test time).
var (
	selfOnce sync.Once
	selfMod  *Module
	selfErr  error
)

func loadSelf(t *testing.T) *Module {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	selfOnce.Do(func() { selfMod, selfErr = LoadModule(filepath.Join("..", ".."), nil) })
	if selfErr != nil {
		t.Fatal(selfErr)
	}
	return selfMod
}

// TestLoadModuleSelf loads the real repository and checks the loader's
// basic guarantees: the module path resolves, dependency order holds, and
// the privacy-critical packages type-check (analyzers rely on their type
// information, so silent degradation there would weaken the gate).
func TestLoadModuleSelf(t *testing.T) {
	mod := loadSelf(t)
	if mod.Path != "gendpr" {
		t.Fatalf("module path %q", mod.Path)
	}
	index := make(map[string]int)
	for i, p := range mod.Packages {
		index[p.Path] = i
	}
	for _, need := range []string{"gendpr/internal/oblivious", "gendpr/internal/transport", "gendpr/internal/federation", "gendpr/internal/analysis"} {
		if _, ok := index[need]; !ok {
			t.Errorf("package %s not loaded", need)
		}
	}
	if index["gendpr/internal/federation"] < index["gendpr/internal/transport"] {
		t.Error("dependency order violated: federation before transport")
	}
	for _, p := range mod.Packages {
		switch p.Path {
		case "gendpr/internal/oblivious", "gendpr/internal/transport", "gendpr/internal/federation",
			"gendpr/internal/stats", "gendpr/internal/lrtest", "gendpr/internal/core":
			if len(p.TypeErrors) > 0 {
				t.Errorf("%s has type errors: %v", p.Path, p.TypeErrors[0])
			}
		}
	}
}

// TestDefaultTaintSpecNamesResolve checks that every DefaultTaintSpec key
// and every DefaultReleasePairs function resolves to a declared type,
// function or method in the module or a package it imports, so no entry
// outlives the symbol it configures.
func TestDefaultTaintSpecNamesResolve(t *testing.T) {
	pkgs := make(map[string]*types.Package)
	var add func(p *types.Package)
	add = func(p *types.Package) {
		if pkgs[p.Path()] == nil {
			pkgs[p.Path()] = p
			for _, imp := range p.Imports() {
				add(imp)
			}
		}
	}
	for _, p := range loadSelf(t).Packages {
		add(p.Types)
	}
	spec := DefaultTaintSpec()
	keys := append([]string(nil), spec.ReleaseTypes...)
	for _, m := range []map[string]SecretClass{spec.SecretTypes, spec.SourceFuncs} {
		for k := range m {
			keys = append(keys, k)
		}
	}
	for k := range spec.Declassifiers {
		keys = append(keys, k)
	}
	for k := range spec.Sinks {
		keys = append(keys, k)
	}
	for k := range spec.OrderSinks {
		keys = append(keys, k)
	}
	for k := range spec.OrderBarriers {
		keys = append(keys, k)
	}
	for _, pair := range DefaultReleasePairs() {
		keys = append(keys, pair.Fn)
	}
	for _, key := range keys {
		// "pkg.Name", "(pkg.Type).Method" or "(*pkg.Type).Method".
		qual, method, ptr := key, "", false
		if end := strings.Index(key, ")."); strings.HasPrefix(key, "(") && end > 0 {
			qual, method = key[1:end], key[end+2:]
			qual, ptr = strings.TrimPrefix(qual, "*"), strings.HasPrefix(qual, "*")
		}
		dot := strings.LastIndex(qual, ".")
		path, name := qual[:dot], qual[dot+1:]
		pkg := pkgs[path]
		if pkg == nil {
			t.Errorf("%s: package %s not loaded", key, path)
			continue
		}
		obj := pkg.Scope().Lookup(name)
		if obj != nil && method != "" {
			typ := obj.Type()
			if ptr {
				typ = types.NewPointer(typ)
			}
			obj, _, _ = types.LookupFieldOrMethod(typ, true, pkg, method)
			if _, isFunc := obj.(*types.Func); !isFunc {
				obj = nil
			}
		}
		if obj == nil {
			t.Errorf("spec key %s names nothing", key)
		}
	}
}

// TestDefaultSuiteCleanOnTree is the in-test version of the CI gate:
// the default analyzers report nothing on the current repository.
func TestDefaultSuiteCleanOnTree(t *testing.T) {
	diags, _ := Run(loadSelf(t), DefaultAnalyzers())
	for _, d := range diags {
		t.Errorf("finding on clean tree: %s", d)
	}
}

// TestBareDirectiveIsFinding: "//gendpr:allow" with no analyzer list is
// malformed and must itself be reported, not silently ignored.
func TestBareDirectiveIsFinding(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

func f(a, b float64) bool {
	//gendpr:allow
	return a == b
}
`
	if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadPackageDir(dir, "fixture/bare")
	if err != nil {
		t.Fatal(err)
	}
	mod := &Module{Path: "fixture", Dir: dir, Fset: pkg.Fset, Packages: []*Package{pkg}}
	diags, _ := Run(mod, []*Analyzer{NewFloatEq(nil)})
	var directive, floateq bool
	for _, d := range diags {
		switch d.Analyzer {
		case "directive":
			directive = true
		case "floateq":
			floateq = true
		}
	}
	if !directive {
		t.Error("bare //gendpr:allow not reported as a malformed directive")
	}
	if !floateq {
		t.Error("bare directive must not suppress the finding")
	}
}

// TestMultiAnalyzerDirective: one directive can name several analyzers; it
// silences exactly those and leaves others firing.
func TestMultiAnalyzerDirective(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

//gendpr:allow(cryptorand,floateq): fixture exercises a multi-analyzer directive
import "math/rand"

func both(a float64) bool {
	//gendpr:allow(cryptorand,floateq): fixture exercises a multi-analyzer directive
	return a == rand.Float64()
}
`
	if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadPackageDir(dir, "fixture/multi")
	if err != nil {
		t.Fatal(err)
	}
	mod := &Module{Path: "fixture", Dir: dir, Fset: pkg.Fset, Packages: []*Package{pkg}}
	analyzers := []*Analyzer{
		NewFloatEq(nil),
		NewCryptoRand([]Scope{{PathPrefix: "fixture/multi"}}),
	}
	if diags, _ := Run(mod, analyzers); len(diags) != 0 {
		t.Errorf("multi-analyzer directives did not suppress everything: %v", diags)
	}

	// The same package with a directive naming only floateq must keep the
	// cryptorand finding.
	dir2 := t.TempDir()
	src2 := `package fixture

//gendpr:allow(floateq): only the comparison rule is acknowledged here
import "math/rand"

func one(a float64) bool {
	//gendpr:allow(floateq): only the comparison rule is acknowledged here
	return a == rand.Float64()
}
`
	if err := os.WriteFile(filepath.Join(dir2, "f.go"), []byte(src2), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg2, err := LoadPackageDir(dir2, "fixture/multi")
	if err != nil {
		t.Fatal(err)
	}
	mod2 := &Module{Path: "fixture", Dir: dir2, Fset: pkg2.Fset, Packages: []*Package{pkg2}}
	var crand bool
	diags, _ := Run(mod2, analyzers)
	for _, d := range diags {
		if d.Analyzer == "floateq" {
			t.Errorf("floateq finding survived its directive: %s", d)
		}
		if d.Analyzer == "cryptorand" {
			crand = true
		}
	}
	if !crand {
		t.Error("directive naming only floateq must leave the cryptorand finding")
	}
}

// TestDirectiveDoesNotReachTwoLinesDown: binding is own line or the line
// directly below — never further.
func TestDirectiveDoesNotReachTwoLinesDown(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

func f(a, b float64) bool {
	//gendpr:allow(floateq): the directive is two lines above the comparison
	_ = a
	return a == b
}
`
	if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadPackageDir(dir, "fixture/fardirective")
	if err != nil {
		t.Fatal(err)
	}
	mod := &Module{Path: "fixture", Dir: dir, Fset: pkg.Fset, Packages: []*Package{pkg}}
	diags, _ := Run(mod, []*Analyzer{NewFloatEq(nil)})
	var floateq bool
	for _, d := range diags {
		if d.Analyzer == "floateq" {
			floateq = true
		}
	}
	if !floateq {
		t.Error("a directive two lines above the finding must not suppress it")
	}
}

// TestLoadModuleNoGoMod: a directory outside any module fails fast with the
// ErrNoModule sentinel (gendpr-lint maps it to exit status 2).
func TestLoadModuleNoGoMod(t *testing.T) {
	_, err := LoadModule(t.TempDir(), nil)
	if !errors.Is(err, ErrNoModule) {
		t.Fatalf("want ErrNoModule, got %v", err)
	}
}

// TestLoadModuleVerboseTiming: with a log, the loader reports one timing
// line per package.
func TestLoadModuleVerboseTiming(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture/timing\n",
		"a.go":   "package timing\n\nfunc A() int { return 1 }\n",
		"b/b.go": "package b\n\nfunc B() int { return 2 }\n",
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	mod, err := LoadModule(dir, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, p := range mod.Packages {
		if !strings.Contains(out, p.Path) {
			t.Errorf("no timing line for %s in:\n%s", p.Path, out)
		}
	}
	if !strings.Contains(out, "ms") {
		t.Errorf("timing lines carry no duration:\n%s", out)
	}
}

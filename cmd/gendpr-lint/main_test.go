package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gendpr/internal/analysis"
)

// lintTempModule writes a one-package module under a temporary directory and
// runs gendpr-lint -json on it from the module root. It changes the process
// working directory for the duration of the call (t.Chdir needs Go 1.24), so
// callers must not run in parallel.
func lintTempModule(t *testing.T, src string) (jsonReport, bool) {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module probe\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(root, "wire"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "wire", "wire.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	var stdout, stderr bytes.Buffer
	failed, err := run([]string{"./..."}, lintOptions{jsonOut: true}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	var report jsonReport
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("-json output is not a report: %v\n%s", err, stdout.String())
	}
	return report, failed
}

// TestJSONReportEnvelope pins the -json envelope scripts/check.sh archives
// as lint-report.json: the module path, the analyzers in suite order, findings as [] (never null)
// on a clean module, and file paths relative to the module root.
func TestJSONReportEnvelope(t *testing.T) {
	var suite []string
	for _, a := range analysis.DefaultAnalyzers() {
		suite = append(suite, a.Name)
	}

	clean, failed := lintTempModule(t, "package wire\n\nfunc Send() error { return nil }\n\nfunc f() error { return Send() }\n")
	if failed {
		t.Error("clean module reported as failing")
	}
	if clean.Module != "probe" {
		t.Errorf("module %q, want %q", clean.Module, "probe")
	}
	if !reflect.DeepEqual(clean.Analyzers, suite) {
		t.Errorf("analyzers %v, want suite order %v", clean.Analyzers, suite)
	}
	if clean.Findings == nil || len(clean.Findings) != 0 {
		t.Errorf("clean module findings %#v, want []", clean.Findings)
	}

	dirty, failed := lintTempModule(t, "package wire\n\nfunc Send() error { return nil }\n\nfunc f() { Send() }\n")
	if !failed {
		t.Error("a dropped Send error did not fail the run")
	}
	if len(dirty.Findings) != 1 {
		t.Fatalf("findings %+v, want one errdrop finding", dirty.Findings)
	}
	got := dirty.Findings[0]
	if want := filepath.Join("wire", "wire.go"); got.File != want || got.Line != 5 || got.Analyzer != "errdrop" {
		t.Errorf("finding %+v, want errdrop at %s:5", got, want)
	}
}

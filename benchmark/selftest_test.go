package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the schema of the BENCHMARK.json the driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the catalogue in
// metrics.go the same list, within the driver's limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if strings.Join(b.Command, " ") != "bash benchmark/run.sh" {
		t.Errorf("command = %v", b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, metrics.go %q / %q", i, w.Name, w.Why, workloadDefs[i].Name, workloadDefs[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q: name or why outside the driver's limits", w.Name)
		}
		if _, err := paperParams(w.Name); err != nil {
			t.Error(err)
		}
	}
	seen := make(map[string]bool)
	check := func(kind string, declared, catalogue []metricDef, bounded bool) {
		if len(declared) != len(catalogue) {
			t.Fatalf("%s: %d metrics declared, %d in the catalogue", kind, len(declared), len(catalogue))
		}
		for i, d := range declared {
			c := catalogue[i]
			if d.Name != c.Name || d.Unit != c.Unit || d.Better != c.Better || d.Bound != c.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, catalogue %+v", kind, i, d, c)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, d.Name)
			}
			seen[d.Name] = true
			if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(d.Unit) {
				t.Errorf("%s metric %q: unit %q", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %q: better = %q", kind, d.Name, d.Better)
			}
			if bounded != (d.Bound > 0) || d.Bound > 0.25 {
				t.Errorf("%s metric %q: bound %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(b.PerLayer) > 128 || len(b.EndToEnd) > 16 {
		t.Error("too many metrics for the driver")
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("setup_s must be declared")
	}
	for _, d := range endToEnd[1:] {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}

func toyConfig(t *testing.T, name string, trace bool) runConfig {
	t.Helper()
	p, err := toyParams(name)
	if err != nil {
		t.Fatal(err)
	}
	secs := 0.25
	if p.Mode == modeReplay {
		secs = 1 // 20 req/s for 1 s
	}
	return runConfig{P: p, Seed: 42, Seconds: secs, Trace: trace, WorkDir: t.TempDir()}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at toy size in both
// passes: the outputs must be correct and the metric names exactly the
// catalogue's, each finite and with its unit. It is also the tripwire for
// API drift in sut.go.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			rc := toyConfig(t, w.Name, trace)
			res, err := runWorkload(rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s missing", w.Name, trace, d.Name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: %s = %v %q", w.Name, trace, d.Name, m.Value, m.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be zero", w.Name, d.Name, m.Value)
				}
			}
			if !trace {
				continue
			}
			if c := res.Metrics["trace.coverage_share"].Value; c < 0.9 {
				t.Errorf("%s: trace.coverage_share = %.3f, want >= 0.9", w.Name, c)
			}
			total := 0.0
			for _, share := range res.Shares {
				total += share
			}
			if math.Abs(total-1) > 1e-6 {
				t.Errorf("%s: layer shares add up to %v", w.Name, total)
			}
			if want := float64(res.Record.Params.expectedCombinations(0)); w.Name != "svc_replay" && res.Metrics["core.combinations"].Value != want {
				t.Errorf("%s: core.combinations = %v, want %v", w.Name, res.Metrics["core.combinations"].Value, want)
			}
			if w.Name == "svc_replay" && res.Metrics["service.reused_share"].Value != 1 {
				t.Errorf("svc_replay: service.reused_share = %v, want 1", res.Metrics["service.reused_share"].Value)
			}
			if _, err := os.Stat(filepath.Join(rc.WorkDir, "trace-"+w.Name+".jsonl")); err != nil {
				t.Errorf("%s: span file: %v", w.Name, err)
			}
		}
	}
}

// TestWrongOracleFailsEveryRequest proves a selection that differs from the
// oracle is counted: every request fails and the run is not correct, which is
// what makes the command exit non-zero.
func TestWrongOracleFailsEveryRequest(t *testing.T) {
	rc := toyConfig(t, "fed3_base", true)
	rc.wrongOracle = true
	res, err := runWorkload(rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

// TestOnlySutImportsTheRepository keeps every repository call in sut.go.
func TestOnlySutImportsTheRepository(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.HasPrefix(imp.Path.Value, `"gendpr/`) && file != "sut.go" {
				t.Errorf("%s imports %s; repository calls belong in sut.go", file, imp.Path.Value)
			}
		}
	}
}

func TestGoldenPinsBothSeeds(t *testing.T) {
	raw, err := os.ReadFile("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadDefs {
		for _, seed := range []string{"42/42", "7/42", "42/7"} {
			if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(golden[w.Name][seed]) {
				t.Errorf("golden.json: no SHA-256 for %s population/seed %s", w.Name, seed)
			}
		}
	}
}

func TestFrameParserFollowsSplitFrames(t *testing.T) {
	var stream []byte
	want := [][2]int{{1, 5}, {7, 0}, {11, 70000}, {8, 1}}
	for _, f := range want {
		var h [6]byte
		binary.BigEndian.PutUint32(h[0:4], uint32(f[1]))
		binary.BigEndian.PutUint16(h[4:6], uint16(f[0]))
		stream = append(append(stream, h[:]...), make([]byte, f[1])...)
	}
	for _, chunk := range []int{1, 3, 6, 7, 4096, len(stream)} {
		var p frameParser
		var got [][2]int
		for at := 0; at < len(stream); at += chunk {
			p.feed(stream[at:min(at+chunk, len(stream))], func(kind uint16, size int) {
				got = append(got, [2]int{int(kind), size})
			})
		}
		if len(got) != len(want) || !p.idle() {
			t.Fatalf("chunk %d: got %v", chunk, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("chunk %d frame %d: got %v, want %v", chunk, i, got[i], want[i])
			}
		}
	}
}

func TestAttributionSumsToTheRequest(t *testing.T) {
	at := func(ms int) int64 { return int64(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{cat: catRequest, Start: at(0), End: at(100)},
		{cat: catQueue, Start: at(0), End: at(10)},
		{cat: catRun, Start: at(10), End: at(98)},
		{cat: catRPCPairs, Link: 0, Start: at(20), End: at(60)},
		{cat: catRPCPairs, Link: 1, Start: at(20), End: at(50)},
		{cat: catMemPairs, Link: 0, Start: at(30), End: at(55)},
		{cat: catMemPairs, Link: 1, Start: at(25), End: at(45)},
		{cat: catCkSave, Start: at(70), End: at(80)},
		{cat: catMemPattern, Link: 0, Start: at(97), End: at(120)}, // clipped at the request's end
	}
	a := attribute(spans)
	var total int64
	for _, v := range a.exclusive {
		total += v
	}
	if total != at(100) {
		t.Errorf("exclusive times sum to %v, want 100ms", time.Duration(total))
	}
	for c, want := range map[category]int64{
		catRequest: 0, catQueue: at(10), catRun: at(37), catRPCPairs: at(10),
		catMemPairs: at(30), catCkSave: at(10), catMemPattern: at(3),
	} {
		if a.exclusive[c] != want {
			t.Errorf("exclusive[%s] = %v, want %v", categoryNames[c], time.Duration(a.exclusive[c]), time.Duration(want))
		}
	}
	if a.covered[catRPCPairs] != at(40) || a.busy[catRPCPairs] != at(70) || a.count[catRPCPairs] != 2 {
		t.Errorf("rpc.pairs: covered %v busy %v count %d", time.Duration(a.covered[catRPCPairs]), time.Duration(a.busy[catRPCPairs]), a.count[catRPCPairs])
	}
	finishSpans(0, spans)
	for _, s := range spans {
		if s.cat == catMemPairs && (s.Parent < 0 || spans[s.Parent].cat != catRPCPairs || spans[s.Parent].Link != s.Link) {
			t.Errorf("member span on link %d has parent %d", s.Link, s.Parent)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(noisy bool, values ...float64) []*result {
		var rs []*result
		for i, v := range values {
			r := &result{Metrics: map[string]metricValue{"m": {Value: v}}}
			r.Record.Seed, r.Record.Noisy = int64(i), noisy
			rs = append(rs, r)
		}
		return rs
	}
	timing := metricDef{Name: "m", Better: "lower", Bound: 0.10}
	rate := metricDef{Name: "m", Better: "higher", Bound: 0.10}
	count := metricDef{Name: "m", Better: "lower", Bound: 0.05, exact: true}
	base := set(false, 1.00, 1.01, 0.99, 1.02, 0.98)
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []*result
		want string
	}{
		{"same", timing, base, set(false, 1.01, 1.00, 1.02, 0.99, 1.00), "same"},
		{"worse", timing, base, set(false, 1.20, 1.21, 1.19, 1.22, 1.18), "worse"},
		{"better", timing, base, set(false, 0.80, 0.81, 0.79, 0.82, 0.78), "better"},
		{"wide spread", timing, base, set(false, 0.7, 1.3, 1.0, 0.8, 1.25), "unresolved"},
		{"noisy run", timing, base, set(true, 1.01, 1.00, 1.02, 0.99, 1.00), "unresolved"},
		{"noisy but disjoint", timing, base, set(true, 1.5, 1.6, 1.7, 1.55, 1.65), "worse"},
		{"noisy, higher is better, all higher", rate, base, set(true, 1.5, 1.6, 1.7, 1.55, 1.65), "better"},
		{"noisy, higher is better, all lower", rate, base, set(true, 0.5, 0.6, 0.7, 0.55, 0.65), "worse"},
		{"noisy, higher is better, overlapping", rate, base, set(true, 0.99, 1.3, 1.2, 1.25, 1.1), "unresolved"},
		{"count identical", count, base, set(false, 1.00, 1.01, 0.99, 1.02, 0.98), "same (identical)"},
		{"count differs in a noisy set", count, base, set(true, 2.00, 2.01, 1.99, 2.02, 1.98), "worse (differs)"},
		{"count differs", count, base, set(false, 2.00, 2.01, 1.99, 2.02, 1.98), "worse (differs)"},
	} {
		if got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

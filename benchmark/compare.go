package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// resultSet is every record of one -out file, grouped by workload and pass.
type resultSet map[string][]*result

func setKey(workload string, trace bool) string {
	if trace {
		return workload + " (traced)"
	}
	return workload
}

func readSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(resultSet)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		key := setKey(r.Record.Workload, r.Record.Trace)
		set[key] = append(set[key], &r)
	}
	return set, sc.Err()
}

// compareFiles prints, per workload, one row per metric with both sets'
// medians and quartiles, the bound, and a verdict. B is judged against A.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	for _, trace := range []bool{false, true} {
		for _, wl := range workloadDefs {
			key := setKey(wl.Name, trace)
			ra, rb := a[key], b[key]
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			fmt.Fprintf(w, "== %s: A %d runs, B %d runs\n", key, len(ra), len(rb))
			fmt.Fprintf(w, "   %-34s %13s %26s %13s %26s %6s  %s\n", "metric", "A median", "[q1, q3]", "B median", "[q1, q3]", "bound", "verdict")
			for _, d := range defs {
				va, vb := values(ra, d.Name), values(rb, d.Name)
				a1, a2, a3 := quartiles(va)
				b1, b2, b3 := quartiles(vb)
				bound := "-"
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.2f", d.Bound)
				}
				fmt.Fprintf(w, "   %-34s %13.6g [%11.6g, %11.6g] %13.6g [%11.6g, %11.6g] %6s  %s\n",
					d.Name, a2, a1, a3, b2, b1, b3, bound, verdict(d, ra, rb))
			}
		}
	}
	return nil
}

func values(rs []*result, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func noisy(rs []*result) bool {
	for _, r := range rs {
		if r.Record.Noisy {
			return true
		}
	}
	return false
}

// verdict judges set B against set A for one metric.
//
// An exact metric that repeats bit for bit on every shared seed is "same
// (identical)"; one that does not is judged like a measured metric, without
// regard to noise flags, and marked "(differs)". A measured one is "worse"
// when B's median is worse than A's by more than the bound (the regression
// rule), "better" when it is better by more than A's own interquartile range,
// and "same" otherwise — unless a set was flagged noisy or its spread is wider
// than the bound, in which case the answer is "unresolved" unless every run
// of one side beats every run of the other. Per-layer metrics have no bound;
// 10% stands in for it.
func verdict(d metricDef, ra, rb []*result) string {
	note := ""
	if d.exact {
		if identical(d, ra, rb) {
			return "same (identical)"
		}
		note = " (differs)"
	}
	return measuredVerdict(d, ra, rb) + note
}

func measuredVerdict(d metricDef, ra, rb []*result) string {
	va, vb := values(ra, d.Name), values(rb, d.Name)
	if len(va) == 0 || len(vb) == 0 {
		return "missing"
	}
	sign := 1.0 // positive change = worse
	if d.Better == "higher" {
		sign = -1
	}
	a1, a2, a3 := quartiles(va)
	b1, b2, b3 := quartiles(vb)
	if a2 == 0 {
		if b2 == 0 {
			return "same"
		}
		return "unresolved"
	}
	bound := d.Bound
	if bound == 0 {
		bound = 0.10
	}
	change := sign * (b2 - a2) / a2
	spread := max(a3-a1, b3-b1) / a2
	if (!d.exact && (noisy(ra) || noisy(rb))) || spread > bound {
		// Too unsteady to trust the medians: only a clean separation counts.
		// cost orders values so that larger is worse, whatever the metric.
		cost := func(v []float64) (lo, hi float64) {
			s := sorted(v)
			if sign < 0 {
				return -s[len(s)-1], -s[0]
			}
			return s[0], s[len(s)-1]
		}
		loA, hiA := cost(va)
		loB, hiB := cost(vb)
		switch {
		case loB > hiA && change > bound:
			return "worse"
		case hiB < loA:
			return "better"
		}
		return "unresolved"
	}
	switch {
	case change > bound:
		return "worse"
	case -change > (a3-a1)/a2 && -change > 0.01:
		return "better"
	}
	return "same"
}

// identical reports whether a count repeats exactly, run by run, on every
// seed both sets share (noise flags do not matter to a count).
func identical(d metricDef, ra, rb []*result) bool {
	bySeed := make(map[int64]float64)
	for _, r := range ra {
		bySeed[r.Record.Seed] = r.Metrics[d.Name].Value
	}
	shared := 0
	for _, r := range rb {
		if va, ok := bySeed[r.Record.Seed]; ok {
			shared++
			if r.Metrics[d.Name].Value != va {
				return false
			}
		}
	}
	if shared > 0 {
		return true
	}
	// No seed in common: identical only if the count does not depend on the
	// seed at all, that is, every run of both sets reads the same.
	all := sorted(append(values(ra, d.Name), values(rb, d.Name)...))
	return len(all) > 0 && all[0] == all[len(all)-1]
}

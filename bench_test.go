// Benchmarks regenerating every table and figure of the paper's evaluation.
//
// One benchmark per experiment:
//
//	BenchmarkTable3Resources  — Table 3 (CPU / enclave memory per config)
//	BenchmarkFig5a/Fig5b      — Figures 5a, 5b (running time, 1,000 SNPs)
//	BenchmarkFig6a/Fig6b      — Figures 6a, 6b (running time, 10,000 SNPs)
//	BenchmarkTable4Selection  — Table 4 (selection correctness funnel)
//	BenchmarkTable5Collusion  — Table 5 (collusion-tolerant GenDPR)
//
// plus ablations for the design choices DESIGN.md calls out. Genome counts
// are scaled by GENDPR_BENCH_SCALE (default 0.05) so the full suite stays in
// benchmark-friendly territory; the trends the paper reports are preserved
// at every scale and cmd/experiments reproduces the tables at any scale up
// to the paper's own (-scale 1).
package gendpr_test

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"

	"gendpr/internal/bench"
	"gendpr/internal/core"
	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
	"gendpr/internal/seal"
	"gendpr/internal/stats"
	"gendpr/internal/transport"
)

func benchScale() float64 {
	if s := os.Getenv("GENDPR_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.05
}

// reportPhases attaches the figure's per-phase breakdown as custom metrics.
func reportPhases(b *testing.B, t core.Timings, runs int) {
	if runs == 0 {
		return
	}
	div := float64(runs)
	b.ReportMetric(float64(t.DataAggregation.Microseconds())/1000/div, "ms-aggregation/op")
	b.ReportMetric(float64(t.Indexing.Microseconds())/1000/div, "ms-indexing/op")
	b.ReportMetric(float64(t.LD.Microseconds())/1000/div, "ms-ld/op")
	b.ReportMetric(float64(t.LRTest.Microseconds())/1000/div, "ms-lrtest/op")
}

// benchFigure runs one running-time figure: sub-benchmarks for the
// centralized baseline and each federation size.
func benchFigure(b *testing.B, w bench.Workload) {
	if _, err := bench.Cohort(w); err != nil { // warm the cohort cache
		b.Fatal(err)
	}
	b.Run("Centralized", func(b *testing.B) {
		var agg core.Timings
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := bench.RunCentralized(w)
			if err != nil {
				b.Fatal(err)
			}
			agg = agg.Add(rep.Timings)
		}
		reportPhases(b, agg, b.N)
	})
	for _, g := range bench.GDOGrid {
		b.Run(fmt.Sprintf("%dGDOs", g), func(b *testing.B) {
			var agg core.Timings
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := bench.RunGenDPR(w, g, core.CollusionPolicy{})
				if err != nil {
					b.Fatal(err)
				}
				agg = agg.Add(rep.Timings)
			}
			reportPhases(b, agg, b.N)
		})
	}
}

func BenchmarkFig5a(b *testing.B) {
	benchFigure(b, bench.Workload{SNPs: 1000, Genomes: 7430, Scale: benchScale()})
}

func BenchmarkFig5b(b *testing.B) {
	benchFigure(b, bench.Workload{SNPs: 1000, Genomes: 14860, Scale: benchScale()})
}

func BenchmarkFig6a(b *testing.B) {
	benchFigure(b, bench.Workload{SNPs: 10000, Genomes: 7430, Scale: benchScale()})
}

func BenchmarkFig6b(b *testing.B) {
	benchFigure(b, bench.Workload{SNPs: 10000, Genomes: 14860, Scale: benchScale()})
}

// BenchmarkTable3Resources regenerates the resource-utilization table:
// enclave peak memory is reported as a custom metric per configuration.
func BenchmarkTable3Resources(b *testing.B) {
	scale := benchScale()
	for _, g := range []int{2, 3, 5, 7} {
		for _, snps := range []int{1000, 10000} {
			w := bench.Workload{SNPs: snps, Genomes: 14860, Scale: scale}
			b.Run(fmt.Sprintf("%dGDOs_%dSNPs", g, snps), func(b *testing.B) {
				b.ReportAllocs()
				var peak int64
				for i := 0; i < b.N; i++ {
					rep, err := bench.RunGenDPR(w, g, core.CollusionPolicy{})
					if err != nil {
						b.Fatal(err)
					}
					peak = rep.PeakEnclaveBytes
				}
				b.ReportMetric(float64(peak)/1024, "enclave-KB")
			})
		}
	}
}

// BenchmarkTable4Selection regenerates the correctness comparison and fails
// the benchmark when GenDPR's selection deviates from the centralized one.
func BenchmarkTable4Selection(b *testing.B) {
	scale := benchScale()
	for _, w := range bench.Table4Workloads(scale) {
		w := w
		b.Run(fmt.Sprintf("%dgenomes_%dSNPs", w.Genomes, w.SNPs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				central, err := bench.RunCentralized(w)
				if err != nil {
					b.Fatal(err)
				}
				dist, err := bench.RunGenDPR(w, 3, core.CollusionPolicy{})
				if err != nil {
					b.Fatal(err)
				}
				if !dist.Selection.Equal(central.Selection) {
					b.Fatalf("GenDPR %v != centralized %v", dist.Selection, central.Selection)
				}
				naive, err := bench.RunNaive(w, 3)
				if err != nil {
					b.Fatal(err)
				}
				maf, ld, lr := dist.Selection.Counts()
				nmaf, nld, nlr := naive.Selection.Counts()
				b.ReportMetric(float64(maf), "maf-snps")
				b.ReportMetric(float64(ld), "ld-snps")
				b.ReportMetric(float64(lr), "lr-snps")
				b.ReportMetric(float64(nmaf), "naive-maf-snps")
				b.ReportMetric(float64(nld), "naive-ld-snps")
				b.ReportMetric(float64(nlr), "naive-lr-snps")
			}
		})
	}
}

// BenchmarkTable5Collusion regenerates the collusion-tolerance table for
// G in {3,4,5} with every fixed f and the conservative mode.
func BenchmarkTable5Collusion(b *testing.B) {
	scale := benchScale()
	w := bench.Workload{SNPs: 10000, Genomes: 14860, Scale: scale}
	base, err := bench.RunGenDPR(w, 3, core.CollusionPolicy{})
	if err != nil {
		b.Fatal(err)
	}
	_ = base
	for _, g := range []int{3, 4, 5} {
		policies := []struct {
			label  string
			policy core.CollusionPolicy
		}{}
		for f := 1; f < g; f++ {
			policies = append(policies, struct {
				label  string
				policy core.CollusionPolicy
			}{fmt.Sprintf("f%d", f), core.CollusionPolicy{F: f}})
		}
		policies = append(policies, struct {
			label  string
			policy core.CollusionPolicy
		}{"fAll", core.CollusionPolicy{Conservative: true}})

		for _, p := range policies {
			p := p
			b.Run(fmt.Sprintf("G%d_%s", g, p.label), func(b *testing.B) {
				b.ReportAllocs()
				var safe, combos int
				var lrPeak int64
				for i := 0; i < b.N; i++ {
					rep, err := bench.RunGenDPR(w, g, p.policy)
					if err != nil {
						b.Fatal(err)
					}
					safe = len(rep.Selection.Safe)
					combos = rep.Combinations
					lrPeak = rep.PeakLRMatrixBytes
				}
				b.ReportMetric(float64(safe), "safe-snps")
				b.ReportMetric(float64(combos), "combinations")
				b.ReportMetric(float64(lrPeak), "lr-matrix-bytes")
			})
		}
	}

	// The G=10 tiers exist because of the combination lattice: conservative
	// mode evaluates 2^10−1 subsets, far past what the per-combination path
	// could sustain. Phase 3 spreads its chains over GOMAXPROCS workers, so
	// compare core counts with -cpu (e.g. -cpu 1,2).
	for _, p := range []struct {
		label  string
		policy core.CollusionPolicy
	}{
		{"f1", core.CollusionPolicy{F: 1}},
		{"fAll", core.CollusionPolicy{Conservative: true}},
	} {
		p := p
		b.Run(fmt.Sprintf("G10_%s", p.label), func(b *testing.B) {
			b.ReportAllocs()
			var safe, combos int
			var lrPeak int64
			for i := 0; i < b.N; i++ {
				rep, err := bench.RunGenDPR(w, 10, p.policy)
				if err != nil {
					b.Fatal(err)
				}
				safe = len(rep.Selection.Safe)
				combos = rep.Combinations
				lrPeak = rep.PeakLRMatrixBytes
			}
			b.ReportMetric(float64(safe), "safe-snps")
			b.ReportMetric(float64(combos), "combinations")
			b.ReportMetric(float64(lrPeak), "lr-matrix-bytes")
		})
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationChiSquare compares the paper's simplified association
// statistic with the standard Pearson 2x2 form for the ranking pass.
func BenchmarkAblationChiSquare(b *testing.B) {
	w := bench.Workload{SNPs: 10000, Genomes: 14860, Scale: benchScale()}
	cohort, err := bench.Cohort(w)
	if err != nil {
		b.Fatal(err)
	}
	caseCounts := cohort.Case.AlleleCounts()
	refCounts := cohort.Reference.AlleleCounts()
	caseN, refN := int64(cohort.Case.N()), int64(cohort.Reference.N())
	for _, form := range []struct {
		name  string
		paper bool
	}{{"PaperForm", true}, {"Pearson2x2", false}} {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.AssociationPValues(caseCounts, caseN, refCounts, refN, form.paper); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLDFullPairwise contrasts the protocol's greedy
// adjacent-pair LD scan (linear in |L'|) with exhaustive pairwise pruning
// (quadratic), the alternative the paper's (L')^2 bound alludes to.
func BenchmarkAblationLDFullPairwise(b *testing.B) {
	w := bench.Workload{SNPs: 1000, Genomes: 7430, Scale: benchScale()}
	cohort, err := bench.Cohort(w)
	if err != nil {
		b.Fatal(err)
	}
	caseCounts := cohort.Case.AlleleCounts()
	refCounts := cohort.Reference.AlleleCounts()
	caseN, refN := int64(cohort.Case.N()), int64(cohort.Reference.N())
	cfg := core.DefaultConfig()
	lPrime, err := core.MAFPhase(caseCounts, caseN, refCounts, refN, cfg.MAFCutoff)
	if err != nil {
		b.Fatal(err)
	}
	pvals, err := core.AssociationPValues(caseCounts, caseN, refCounts, refN, true)
	if err != nil {
		b.Fatal(err)
	}
	pool := func(x, y int) (genome.PairStats, error) {
		return cohort.Case.PairStats(x, y).Add(cohort.Reference.PairStats(x, y)), nil
	}

	b.Run("GreedyAdjacent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.LDPhase(lPrime, pool, pvals, cfg.LDCutoff); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FullPairwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fullPairwiseLD(lPrime, pool, pvals, cfg.LDCutoff); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fullPairwiseLD removes, for every dependent pair, the lower-ranked SNP —
// over all O(n^2) pairs.
func fullPairwiseLD(retained []int, pool core.PairStatsFunc, pvals []float64, cutoff float64) ([]int, error) {
	alive := make(map[int]bool, len(retained))
	for _, l := range retained {
		alive[l] = true
	}
	for i := 0; i < len(retained); i++ {
		if !alive[retained[i]] {
			continue
		}
		for j := i + 1; j < len(retained); j++ {
			if !alive[retained[i]] {
				break
			}
			if !alive[retained[j]] {
				continue
			}
			ps, err := pool(retained[i], retained[j])
			if err != nil {
				return nil, err
			}
			p, err := stats.LDPValue(ps)
			if errors.Is(err, stats.ErrDegeneratePair) {
				p, err = 1, nil
			}
			if err != nil {
				return nil, err
			}
			if p < cutoff {
				if pvals[retained[i]] <= pvals[retained[j]] {
					alive[retained[j]] = false
				} else {
					alive[retained[i]] = false
				}
			}
		}
	}
	out := make([]int, 0, len(alive))
	for _, l := range retained {
		if alive[l] {
			out = append(out, l)
		}
	}
	return out, nil
}

// BenchmarkAblationObliviousLRTest measures the cost of the side-channel-
// hardened LR-test (bitonic sorting networks and branchless counting) versus
// the direct implementation; the selection output is identical.
func BenchmarkAblationObliviousLRTest(b *testing.B) {
	w := bench.Workload{SNPs: 1000, Genomes: 7430, Scale: benchScale()}
	cohort, err := bench.Cohort(w)
	if err != nil {
		b.Fatal(err)
	}
	shards, err := cohort.Partition(3)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name      string
		oblivious bool
	}{{"Direct", false}, {"Oblivious", true}} {
		cfg := core.DefaultConfig()
		cfg.LR.Oblivious = mode.oblivious
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunDistributed(shards, cohort.Reference, cfg, core.CollusionPolicy{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLRWireFormat compares the size of a dense float64
// LR-matrix encoding against the two-values-per-column compact form the
// federation transmits.
func BenchmarkAblationLRWireFormat(b *testing.B) {
	w := bench.Workload{SNPs: 1000, Genomes: 7430, Scale: benchScale()}
	cohort, err := bench.Cohort(w)
	if err != nil {
		b.Fatal(err)
	}
	caseFreq := genome.Frequencies(cohort.Case.AlleleCounts(), int64(cohort.Case.N()))
	refFreq := genome.Frequencies(cohort.Reference.AlleleCounts(), int64(cohort.Reference.N()))
	ratios, err := lrtest.NewLogRatios(caseFreq, refFreq)
	if err != nil {
		b.Fatal(err)
	}
	m, err := lrtest.BuildBit(cohort.Case, ratios)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Dense", func(b *testing.B) {
		// A 16-byte shape header and eight bytes per cell; nothing encodes
		// it any more, so only its size is reported.
		b.ReportMetric(float64(16+8*m.Rows()*m.Cols()), "wire-bytes")
	})
	b.Run("Compact", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			n = len(m.EncodeWire())
		}
		b.ReportMetric(float64(n), "wire-bytes")
	})
}

// BenchmarkAblationEncryption measures the AES-256-GCM transport wrapper's
// overhead against plaintext framing for LR-matrix-sized payloads.
func BenchmarkAblationEncryption(b *testing.B) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	run := func(b *testing.B, conn transport.Conn, peer transport.Conn) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		errCh := make(chan error, 1)
		go func() {
			defer close(errCh)
			for i := 0; i < b.N; i++ {
				if _, err := peer.Recv(); err != nil {
					errCh <- err
					return
				}
			}
		}()
		for i := 0; i < b.N; i++ {
			if err := conn.Send(transport.Message{Kind: 1, Payload: payload}); err != nil {
				b.Fatal(err)
			}
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Plaintext", func(b *testing.B) {
		a, p := transport.Pipe()
		defer a.Close()
		run(b, a, p)
	})
	b.Run("AES256GCM", func(b *testing.B) {
		key, err := seal.NewKey()
		if err != nil {
			b.Fatal(err)
		}
		a, p := transport.Pipe()
		defer a.Close()
		run(b, transport.NewSecure(a, key), transport.NewSecure(p, key))
	})
}

// BenchmarkAblationBitset compares the bitset genotype matrix against a
// naive byte-per-genotype representation for the Phase 1 counting pass.
func BenchmarkAblationBitset(b *testing.B) {
	const n, l = 2000, 1000
	w := bench.Workload{SNPs: l, Genomes: 30000, Scale: 0.0667}
	cohort, err := bench.Cohort(w)
	if err != nil {
		b.Fatal(err)
	}
	m := cohort.Case
	bytes := make([][]byte, m.N())
	for i := range bytes {
		bytes[i] = make([]byte, m.L())
		for j := 0; j < m.L(); j++ {
			if m.Get(i, j) {
				bytes[i][j] = 1
			}
		}
	}
	_ = n
	b.Run("Bitset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = m.AlleleCounts()
		}
	})
	b.Run("BytePerGenotype", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			counts := make([]int64, m.L())
			for _, row := range bytes {
				for j, v := range row {
					counts[j] += int64(v)
				}
			}
		}
	})
}

// Ablation benchmarks for the design choices DESIGN.md §5 calls out. The
// paper's tables and figures come from one generator, cmd/experiments over
// internal/bench (EXPERIMENTS.md); these benchmarks measure the alternatives
// that generator does not run, on small fixed workloads.
package gendpr_test

import (
	"errors"
	"net"
	"testing"

	"gendpr/internal/bench"
	"gendpr/internal/core"
	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
	"gendpr/internal/seal"
	"gendpr/internal/stats"
	"gendpr/internal/transport"
)

// ablationScale multiplies the paper's genome counts for the ablations that
// run on a workload of the paper's grid.
const ablationScale = 0.05

// BenchmarkAblationChiSquare compares the paper's simplified association
// statistic with the standard Pearson 2x2 form for the ranking pass.
func BenchmarkAblationChiSquare(b *testing.B) {
	w := bench.Workload{SNPs: 10000, Genomes: 14860, Scale: ablationScale}
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
	w := bench.Workload{SNPs: 1000, Genomes: 7430, Scale: ablationScale}
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
	w := bench.Workload{SNPs: 1000, Genomes: 7430, Scale: ablationScale}
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
// LR-matrix encoding against what a member ships in Phase 3: its genotype
// pattern, one bit per cell and no representatives (EncodePatternWire).
func BenchmarkAblationLRWireFormat(b *testing.B) {
	w := bench.Workload{SNPs: 1000, Genomes: 7430, Scale: ablationScale}
	cohort, err := bench.Cohort(w)
	if err != nil {
		b.Fatal(err)
	}
	m, err := lrtest.BuildBitPattern(cohort.Case)
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
			n = len(m.EncodePatternWire())
		}
		b.ReportMetric(float64(n), "wire-bytes")
	})
}

// BenchmarkAblationEncryption measures the AES-256-GCM transport wrapper's
// overhead against plaintext framing for LR-matrix-sized payloads. Both rows
// send over one framed byte stream — the frame codec over an in-memory
// net.Pipe, as a TCP link carries messages — so the Plaintext row prices
// framing and copying, and the AES256GCM row adds sealing on top.
func BenchmarkAblationEncryption(b *testing.B) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	run := func(b *testing.B, wrap func(transport.Conn) transport.Conn) {
		a, p := net.Pipe()
		conn, peer := wrap(transport.NewNetConn(a)), wrap(transport.NewNetConn(p))
		defer conn.Close()
		defer peer.Close()
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
		run(b, func(c transport.Conn) transport.Conn { return c })
	})
	b.Run("AES256GCM", func(b *testing.B) {
		key, err := seal.NewKey()
		if err != nil {
			b.Fatal(err)
		}
		run(b, func(c transport.Conn) transport.Conn { return transport.NewSecure(c, key) })
	})
}

// BenchmarkAblationBitset compares the bitset genotype matrix against a
// naive byte-per-genotype representation for the Phase 1 counting pass.
func BenchmarkAblationBitset(b *testing.B) {
	w := bench.Workload{SNPs: 1000, Genomes: 30000, Scale: 0.0667}
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
	b.Run("Bitset", func(b *testing.B) {
		// The matrix keeps its counts current; recounting every column (a
		// column's intersection with itself is its popcount) is the pass
		// the byte form pays per call.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for l := 0; l < m.L(); l++ {
				_ = m.PairCount(l, l)
			}
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

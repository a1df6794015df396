package core

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
)

// seededMatrix fills an n-by-l genotype matrix with the given minor-allele
// density from a seeded source.
func seededMatrix(n, l int, density float64, seed int64) *genome.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := genome.NewMatrix(n, l)
	for i := 0; i < n; i++ {
		for j := 0; j < l; j++ {
			if rng.Float64() < density {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

// TestGatherMatchesSelectColumnsBuildBit pins the protocol path's column
// gather to the reference it replaced: over seeded random shapes and column
// lists, LRPattern and BuildLRBitMatrix must be what BuildBitPattern /
// BuildBit produce from SelectColumns: the same cells (Equal) from the same
// bits (their pattern wire bytes).
func TestGatherMatchesSelectColumnsBuildBit(t *testing.T) {
	const l = 97
	for _, n := range []int{1, 63, 64, 65, 4953} {
		g := seededMatrix(n, l, 0.3, int64(n))
		rng := rand.New(rand.NewSource(int64(n) + 1000))
		lists := map[string][]int{
			"empty":    {},
			"last":     {l - 1},
			"first":    {0},
			"unsorted": rng.Perm(l)[:41],
			"all":      rng.Perm(l),
		}
		for name, cols := range lists {
			caseFreq := make([]float64, len(cols))
			refFreq := make([]float64, len(cols))
			for j := range cols {
				caseFreq[j], refFreq[j] = rng.Float64(), rng.Float64()
			}
			ratios, err := lrtest.NewLogRatios(caseFreq, refFreq)
			if err != nil {
				t.Fatal(err)
			}
			sub := g.SelectColumns(cols)

			wantPat, err := lrtest.BuildBitPattern(sub)
			if err != nil {
				t.Fatal(err)
			}
			gotPat, err := NewLocalMember(g).LRPattern(cols)
			if err != nil {
				t.Fatalf("n=%d %s: LRPattern: %v", n, name, err)
			}
			if !gotPat.IsPattern() {
				t.Errorf("n=%d %s: gathered pattern carries representatives", n, name)
			}
			if !bytes.Equal(gotPat.EncodePatternWire(), wantPat.EncodePatternWire()) || !gotPat.Equal(wantPat) {
				t.Errorf("n=%d %s: gathered pattern differs from BuildBitPattern(SelectColumns)", n, name)
			}

			wantLR, err := lrtest.BuildBit(sub, ratios)
			if err != nil {
				t.Fatal(err)
			}
			gotLR, err := BuildLRBitMatrix(g, cols, caseFreq, refFreq)
			if err != nil {
				t.Fatalf("n=%d %s: BuildLRBitMatrix: %v", n, name, err)
			}
			if !gotLR.Equal(wantLR) || !bytes.Equal(gotLR.EncodePatternWire(), wantLR.EncodePatternWire()) {
				t.Errorf("n=%d %s: gathered LR-matrix differs from BuildBit(SelectColumns)", n, name)
			}
		}
	}
}

// TestGatherRejectsBadColumns: a member answers out-of-range and duplicate
// columns, and NaN or out-of-range frequencies, with an error, and nothing
// reaches a panic.
func TestGatherRejectsBadColumns(t *testing.T) {
	g := seededMatrix(10, 8, 0.5, 1)
	members := map[string]Provider{"local": NewLocalMember(g)}
	for name, m := range members {
		for _, cols := range [][]int{{8}, {-1}, {0, 8}, {3, 3}} {
			if _, err := m.LRPattern(cols); err == nil {
				t.Errorf("%s: LRPattern(%v) accepted", name, cols)
			}
			freq := make([]float64, len(cols))
			for j := range freq {
				freq[j] = 0.5
			}
			if _, err := m.LRMatrix(cols, freq, freq); err == nil {
				t.Errorf("%s: LRMatrix(%v) accepted", name, cols)
			}
		}
		for _, bad := range []float64{math.NaN(), 1.5, -0.5} {
			good := []float64{0.5, 0.5}
			worse := []float64{0.5, bad}
			if _, err := m.LRMatrix([]int{1, 2}, worse, good); err == nil {
				t.Errorf("%s: LRMatrix accepted case frequency %v", name, bad)
			}
			if _, err := m.LRMatrix([]int{1, 2}, good, worse); err == nil {
				t.Errorf("%s: LRMatrix accepted reference frequency %v", name, bad)
			}
		}
	}
}

// gatherBenchInputs is fed3_base's Phase-3 shape: the paper's largest cohort
// (10,000 SNPs x 14,860 case genomes over G=3, so a 4,953-row member shard,
// and the 13,035-row reference panel) and as many columns as that workload
// retains after LD.
func gatherBenchInputs(b *testing.B) (shapes map[string]*genome.Matrix, cols []int) {
	cohort := testCohort(b, 10000, 14860, 42)
	shapes = map[string]*genome.Matrix{
		"member4953x10000":     shardsOf(b, cohort, 3)[0],
		"reference13035x10000": cohort.Reference,
	}
	cols = rand.New(rand.NewSource(7)).Perm(10000)[:410]
	sort.Ints(cols)
	return shapes, cols
}

var benchSink *lrtest.BitMatrix

// BenchmarkLRPattern prices one member-side pattern request: the gather the
// protocol path runs, next to the SelectColumns+BuildBitPattern it replaced.
func BenchmarkLRPattern(b *testing.B) {
	shapes, cols := gatherBenchInputs(b)
	for name, g := range shapes {
		m := NewLocalMember(g)
		b.Run(name+"/gather", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := m.LRPattern(cols)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = p
			}
		})
		b.Run(name+"/select+buildbit", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := lrtest.BuildBitPattern(g.SelectColumns(cols))
				if err != nil {
					b.Fatal(err)
				}
				benchSink = p
			}
		})
	}
}

// BenchmarkBuildLRBitMatrix is the same comparison for a skinned LR-matrix,
// the form the leader builds over the reference panel.
func BenchmarkBuildLRBitMatrix(b *testing.B) {
	shapes, cols := gatherBenchInputs(b)
	freq := make([]float64, len(cols))
	for j := range freq {
		freq[j] = 0.1 + 0.8*float64(j)/float64(len(cols))
	}
	ratios, err := lrtest.NewLogRatios(freq, freq)
	if err != nil {
		b.Fatal(err)
	}
	for name, g := range shapes {
		b.Run(name+"/gather", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := BuildLRBitMatrix(g, cols, freq, freq)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = m
			}
		})
		b.Run(name+"/select+buildbit", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := lrtest.BuildBit(g.SelectColumns(cols), ratios)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = m
			}
		})
	}
}

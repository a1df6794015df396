package genome

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sampleReference is the per-cell sampling loop Generate used before its
// stream-level sampler, kept as the oracle: one rng.Float64() per copy test
// and per fresh allele, one Set per minor allele.
func sampleReference(n int, freq []float64, blockStart []bool, corr float64, rng *rand.Rand) *Matrix {
	m := NewMatrix(n, len(freq))
	for i := 0; i < n; i++ {
		prev := false
		for l := 0; l < len(freq); l++ {
			var minor bool
			if !blockStart[l] && rng.Float64() < corr {
				minor = prev
			} else {
				minor = rng.Float64() < freq[l]
			}
			if minor {
				m.Set(i, l, true)
			}
			prev = minor
		}
	}
	return m
}

// generateReference is Generate over math/rand's own source and the
// per-cell loop.
func generateReference(cfg GeneratorConfig) *Cohort {
	rng := rand.New(rand.NewSource(cfg.Seed))
	blockStart, caseFreq, refFreq, associated := layout(cfg, rng)
	return &Cohort{
		Case:           sampleReference(cfg.CaseN, caseFreq, blockStart, cfg.WithinBlockCorr, rng),
		Reference:      sampleReference(cfg.ReferenceN, refFreq, blockStart, cfg.WithinBlockCorr, rng),
		TrueAssociated: associated,
	}
}

func sameCohort(t *testing.T, name string, got, want *Cohort) {
	t.Helper()
	if !got.Case.Equal(want.Case) || !got.Reference.Equal(want.Reference) {
		t.Fatalf("%s: genotypes differ from the per-cell loop", name)
	}
	if !slices.Equal(got.Case.AlleleCounts(), want.Case.AlleleCounts()) ||
		!slices.Equal(got.Reference.AlleleCounts(), want.Reference.AlleleCounts()) {
		t.Fatalf("%s: allele counts differ from the per-cell loop's", name)
	}
	if !slices.Equal(got.TrueAssociated, want.TrueAssociated) {
		t.Fatalf("%s: associated SNPs %v, want %v", name, got.TrueAssociated, want.TrueAssociated)
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

func TestGenerateMatchesReference(t *testing.T) {
	var cfgs []GeneratorConfig
	for _, seed := range []int64{0, -3, 7, 42} {
		for _, l := range []int{1, 63, 64, 65, 130, 1000} {
			for _, n := range []int{1, 77, 400} {
				cfgs = append(cfgs, DefaultGeneratorConfig(l, n, seed))
			}
		}
		for _, mutate := range []func(*GeneratorConfig){
			func(c *GeneratorConfig) { c.BlockMeanLen = 1 },
			func(c *GeneratorConfig) { c.BlockMeanLen = 0.5 },
			func(c *GeneratorConfig) { c.WithinBlockCorr = 0 },
			func(c *GeneratorConfig) { c.WithinBlockCorr = 0.999 },
			func(c *GeneratorConfig) { c.BlockMeanLen = 400 },
		} {
			cfg := DefaultGeneratorConfig(1000, 300, seed)
			mutate(&cfg)
			cfgs = append(cfgs, cfg)
		}
	}
	if !testing.Short() && !raceEnabled {
		// The fed3_base shape, for both populations benchmark/golden.json
		// pins. The race detector slows the per-cell loop ~30× and has no
		// goroutine here to watch.
		cfgs = append(cfgs, DefaultGeneratorConfig(10000, 14860, 42), DefaultGeneratorConfig(10000, 14860, 7))
	}
	for _, cfg := range cfgs {
		name := fmt.Sprintf("L=%d n=%d ref=%d seed=%d blocks=%v corr=%v",
			cfg.SNPs, cfg.CaseN, cfg.ReferenceN, cfg.Seed, cfg.BlockMeanLen, cfg.WithinBlockCorr)
		got, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameCohort(t, name, got, generateReference(cfg))
	}
}

// TestGenerateRedrawsFloatOne plants outputs that rand.Float64 turns into
// 1.0 — astronomically rare in a real stream — at block starts, inside copy
// runs and at broken copies: the sampler must skip each exactly as Float64's
// redraw does.
func TestGenerateRedrawsFloatOne(t *testing.T) {
	for _, corr := range []float64{0, 0.5, 0.96} {
		for _, every := range []int{2, 5, 37} {
			freq := make([]float64, 150)
			blockStart := make([]bool, len(freq))
			rng := rand.New(rand.NewSource(int64(every)))
			for l := range freq {
				freq[l] = 0.05 + 0.9*rng.Float64()
				blockStart[l] = l%9 == 0 || l == 40
			}
			fast := newStream(int64(every))
			for i := 0; i < rngLen; i += every {
				fast.buf[i] = floatOne + uint64(i)       // the least redraw and above
				fast.buf[i+every/2] |= 1 << 63           // ignored by Int63
				fast.buf[min(i+1, rngLen-1)] = 1<<64 - 1 // the largest redraw
			}
			extend(fast.buf, rngLen)
			ref := &stream{buf: slices.Clone(fast.buf)}
			got := sample(40, freq, blockStart, corr, fast)
			want := sampleReference(40, freq, blockStart, corr, rand.New(ref))
			if !got.Equal(want) {
				t.Fatalf("corr %v, planted every %d: genotypes differ from the per-cell loop", corr, every)
			}
			// Both must stop at the same output: the next ones agree.
			if a, b := fast.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("corr %v, planted every %d: next output %#x, Float64's stream %#x", corr, every, a, b)
			}
		}
	}
}

func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{42, 7, 0, -3, math.MaxInt64} {
		src := rand.NewSource(seed).(rand.Source64)
		s := newStream(seed)
		for i := 0; i < 3_000_000; i++ {
			want := src.Uint64()
			var got uint64
			switch i % 3 {
			case 0:
				got = s.Uint64()
			case 1:
				got, want = uint64(s.Int63()), want&int63Mask
			default:
				// A window far beyond a chunk grows the buffer.
				got = s.window(1 + i%(3*streamChunk))[0]
				s.pos++
			}
			if got != want {
				t.Fatalf("seed %d: output %d is %#x, math/rand gives %#x", seed, i, got, want)
			}
		}
	}
}

func TestThreshold(t *testing.T) {
	if got := threshold(1); got != floatOne {
		t.Fatalf("threshold(1) = %#x, floatOne = %#x", got, uint64(floatOne))
	}
	float := func(v uint64) float64 { return float64(int64(v)) / (1 << 63) }
	rng := rand.New(rand.NewSource(1))
	ps := []float64{0, 1e-300, 0.001, 0.05, 0.5, 0.95, 0.96, 0.999, math.Nextafter(1, 0), 1}
	for i := 0; i < 1000; i++ {
		ps = append(ps, rng.Float64())
	}
	for _, p := range ps {
		tp := threshold(p)
		if tp > 0 && !(float(tp-1) < p) {
			t.Fatalf("p=%v: T-1=%#x reads %v, not below p", p, tp-1, float(tp-1))
		}
		if tp < 1<<63 && float(tp) < p {
			t.Fatalf("p=%v: T=%#x reads %v, below p", p, tp, float(tp))
		}
	}
	if threshold(1.5) != 1<<63 {
		t.Fatal("p above 1 must admit every Int63")
	}
}

// populationDigests are SHA-256 sums of Case then Reference rendered
// row-major (see rowMajorWords), each word little-endian, taken from the
// per-cell generator: any change to the stream or its consumption changes
// them.
var populationDigests = map[int64]string{
	42: "4dd93c03f0c9be3e1c69a2d778a37697b8aee4a50441f6a10c41572b9211e90c",
	7:  "8569f4ce9e6864bf9e32bc0f977b820a6e2e602e4f99ee3a90305b079f82c181",
}

func TestGeneratePopulationDigests(t *testing.T) {
	for seed, want := range populationDigests {
		cohort, err := Generate(DefaultGeneratorConfig(1000, 7430, seed))
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		h := sha256.New()
		var b [8]byte
		for _, m := range []*Matrix{cohort.Case, cohort.Reference} {
			for _, w := range rowMajorWords(m) {
				binary.LittleEndian.PutUint64(b[:], w)
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("seed %d: population digest %s, want %s", seed, got, want)
		}
	}
}

// rowMajorWords renders m one individual after another, (L()+63)/64 words
// per individual, SNP l at bit l%64 of word l/64 — the storage the digests
// were first taken over, so they pin the genotypes and not the layout.
func rowMajorWords(m *Matrix) []uint64 {
	stride := (m.L() + wordBits - 1) / wordBits
	words := make([]uint64, m.N()*stride)
	for i := 0; i < m.N(); i++ {
		for l := 0; l < m.L(); l++ {
			words[i*stride+l/wordBits] |= uint64(m.GetBit(i, l)) << (uint(l) % wordBits)
		}
	}
	return words
}

// BenchmarkGenerate prices one cohort at the benchmark's shapes: fed3_base's
// 10⁴ SNPs × 14,860 cases (plus the 13,035-genome panel), the service
// workloads' 10³ × 7,430, and one chromosome at 10⁵ × 3,000.
func BenchmarkGenerate(b *testing.B) {
	for _, sh := range []struct {
		name        string
		snps, caseN int
	}{
		{"fed3_base", 10000, 14860},
		{"svc", 1000, 7430},
		{"chromosome", 100000, 3000},
	} {
		b.Run(sh.name, func(b *testing.B) {
			cfg := DefaultGeneratorConfig(sh.snps, sh.caseN, 42)
			for i := 0; i < b.N; i++ {
				var err error
				if benchCohort, err = Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
			cells := float64(cfg.SNPs) * float64(cfg.CaseN+cfg.ReferenceN)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
		})
	}
}

var benchCohort *Cohort

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGeneratorConfig(200, 300, 42)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !a.Case.Equal(b.Case) || !a.Reference.Equal(b.Reference) {
		t.Fatal("same seed must produce identical cohorts")
	}
	c, err := Generate(DefaultGeneratorConfig(200, 300, 43))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if a.Case.Equal(c.Case) {
		t.Fatal("different seeds should produce different cohorts")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := DefaultGeneratorConfig(150, 220, 1)
	cohort, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := cohort.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cohort.Case.N() != 220 || cohort.Case.L() != 150 {
		t.Errorf("case shape %dx%d, want 220x150", cohort.Case.N(), cohort.Case.L())
	}
	if cohort.Reference.L() != 150 {
		t.Errorf("reference has %d SNPs, want 150", cohort.Reference.L())
	}
	if cohort.Reference.N() != cfg.ReferenceN {
		t.Errorf("reference has %d genomes, want %d", cohort.Reference.N(), cfg.ReferenceN)
	}
	if len(cohort.TrueAssociated) == 0 {
		t.Error("default config should plant associated SNPs")
	}
	for _, l := range cohort.TrueAssociated {
		if l < 0 || l >= 150 {
			t.Errorf("associated SNP %d out of range", l)
		}
	}
}

func TestGenerateRareTailExists(t *testing.T) {
	cfg := DefaultGeneratorConfig(600, 400, 7)
	cohort, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	freqs := Frequencies(cohort.Reference.AlleleCounts(), int64(cohort.Reference.N()))
	rare := 0
	for _, p := range freqs {
		if p < 0.05 {
			rare++
		}
	}
	frac := float64(rare) / float64(len(freqs))
	// RareFraction 0.58 with block structure and sampling noise: most SNPs
	// should fall below the 0.05 cutoff, but far from all.
	if frac < 0.35 || frac > 0.85 {
		t.Errorf("rare fraction %.2f outside plausible [0.35, 0.85]", frac)
	}
}

func TestGenerateLDStructure(t *testing.T) {
	cfg := DefaultGeneratorConfig(400, 800, 11)
	cohort, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Average adjacent-pair correlation must clearly exceed zero: the LD
	// phase has something to find.
	var sum float64
	pairs := 0
	for l := 0; l+1 < cohort.SNPs(); l++ {
		s := cohort.Reference.PairStats(l, l+1)
		r2 := sampleR2(s)
		if math.IsNaN(r2) {
			continue
		}
		sum += r2
		pairs++
	}
	mean := sum / float64(pairs)
	if mean < 0.2 {
		t.Errorf("mean adjacent r^2 = %.3f; generator produced no LD structure", mean)
	}
}

// sampleR2 computes r^2 from sufficient statistics for the test's own use.
func sampleR2(s PairStats) float64 {
	n := float64(s.N)
	num := n*float64(s.SumXY) - float64(s.SumX)*float64(s.SumY)
	vx := n*float64(s.SumXX) - float64(s.SumX)*float64(s.SumX)
	vy := n*float64(s.SumYY) - float64(s.SumY)*float64(s.SumY)
	if vx <= 0 || vy <= 0 {
		return math.NaN()
	}
	r := num / math.Sqrt(vx*vy)
	return r * r
}

func TestGenerateAssociationSignal(t *testing.T) {
	cfg := DefaultGeneratorConfig(500, 2000, 13)
	cfg.ReferenceN = 2000
	cohort, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	caseFreq := Frequencies(cohort.Case.AlleleCounts(), int64(cohort.Case.N()))
	refFreq := Frequencies(cohort.Reference.AlleleCounts(), int64(cohort.Reference.N()))

	assoc := make(map[int]bool, len(cohort.TrueAssociated))
	for _, l := range cohort.TrueAssociated {
		assoc[l] = true
	}
	var assocGap, nullGap float64
	var nAssoc, nNull int
	for l := range caseFreq {
		gap := math.Abs(caseFreq[l] - refFreq[l])
		if assoc[l] {
			assocGap += gap
			nAssoc++
		} else {
			nullGap += gap
			nNull++
		}
	}
	if nAssoc == 0 {
		t.Fatal("no associated SNPs generated")
	}
	if assocGap/float64(nAssoc) <= nullGap/float64(nNull) {
		t.Errorf("associated SNPs show no stronger case/reference divergence: assoc %.4f vs null %.4f",
			assocGap/float64(nAssoc), nullGap/float64(nNull))
	}
}

func TestGeneratorConfigValidate(t *testing.T) {
	base := DefaultGeneratorConfig(10, 10, 1)
	cases := []struct {
		name   string
		mutate func(*GeneratorConfig)
	}{
		{"zero snps", func(c *GeneratorConfig) { c.SNPs = 0 }},
		{"neg case", func(c *GeneratorConfig) { c.CaseN = -1 }},
		{"zero ref", func(c *GeneratorConfig) { c.ReferenceN = 0 }},
		{"rare frac", func(c *GeneratorConfig) { c.RareFraction = 1.5 }},
		{"assoc frac", func(c *GeneratorConfig) { c.AssociatedFraction = -0.1 }},
		{"corr one", func(c *GeneratorConfig) { c.WithinBlockCorr = 1.0 }},
		{"nan rare frac", func(c *GeneratorConfig) { c.RareFraction = math.NaN() }},
		{"nan corr", func(c *GeneratorConfig) { c.WithinBlockCorr = math.NaN() }},
		{"inf block len", func(c *GeneratorConfig) { c.BlockMeanLen = math.Inf(1) }},
		{"neg inf effect", func(c *GeneratorConfig) { c.EffectSize = math.Inf(-1) }},
		{"rare low neg", func(c *GeneratorConfig) { c.RareLow = -0.01 }},
		{"rare high above one", func(c *GeneratorConfig) { c.RareHigh = 1.1 }},
		{"common low neg", func(c *GeneratorConfig) { c.CommonLow = -0.01 }},
		{"common high above one", func(c *GeneratorConfig) { c.CommonHigh = 1.1 }},
		{"rare low above high", func(c *GeneratorConfig) { c.RareLow, c.RareHigh = 0.04, 0.01 }},
		{"common low above high", func(c *GeneratorConfig) { c.CommonLow, c.CommonHigh = 0.4, 0.1 }},
		{"neg jitter", func(c *GeneratorConfig) { c.BlockFreqJitter = -0.01 }},
		{"neg effect", func(c *GeneratorConfig) { c.EffectSize = -0.08 }},
		{"neg drift", func(c *GeneratorConfig) { c.Drift = -0.015 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
			if _, err := Generate(cfg); err == nil {
				t.Fatal("Generate must reject invalid config")
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("default config must validate: %v", err)
	}
}

func TestPartition(t *testing.T) {
	cohort, err := Generate(DefaultGeneratorConfig(50, 103, 3))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	shards, err := cohort.Partition(5)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if len(shards) != 5 {
		t.Fatalf("got %d shards, want 5", len(shards))
	}
	total := 0
	for _, s := range shards {
		total += s.N()
		if s.L() != 50 {
			t.Errorf("shard has %d SNPs, want 50", s.L())
		}
	}
	if total != 103 {
		t.Errorf("shards cover %d genomes, want 103", total)
	}
	// Near-equal: sizes differ by at most one.
	min, max := shards[0].N(), shards[0].N()
	for _, s := range shards {
		if s.N() < min {
			min = s.N()
		}
		if s.N() > max {
			max = s.N()
		}
	}
	if max-min > 1 {
		t.Errorf("unbalanced shards: min %d max %d", min, max)
	}
	back, err := Concat(shards...)
	if err != nil {
		t.Fatalf("Concat: %v", err)
	}
	if !back.Equal(cohort.Case) {
		t.Error("partition must preserve row order")
	}
}

func TestPartitionErrors(t *testing.T) {
	cohort := &Cohort{Case: NewMatrix(3, 5), Reference: NewMatrix(1, 5)}
	if _, err := cohort.Partition(0); err == nil {
		t.Error("g=0 must fail")
	}
	if _, err := cohort.Partition(4); err == nil {
		t.Error("more shards than genomes must fail")
	}
}

func TestFrequencies(t *testing.T) {
	got := Frequencies([]int64{0, 5, 10}, 10)
	want := []float64{0, 0.5, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("freq[%d]=%v, want %v", i, got[i], want[i])
		}
	}
	zero := Frequencies([]int64{3}, 0)
	if zero[0] != 0 {
		t.Error("n=0 must yield zero frequencies, not NaN/Inf")
	}
}

func TestCohortValidate(t *testing.T) {
	if err := (&Cohort{}).Validate(); err == nil {
		t.Error("nil matrices must fail validation")
	}
	c := &Cohort{Case: NewMatrix(2, 5), Reference: NewMatrix(2, 6)}
	if err := c.Validate(); err == nil {
		t.Error("SNP mismatch must fail validation")
	}
}

package genome

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// GeneratorConfig controls the synthetic cohort generator.
//
// The paper evaluates on the dbGaP phs001039.v1.p1 Age-Related Macular
// Degeneration dataset, which is access-controlled. The generator substitutes
// a seeded synthetic population that reproduces the statistical structure the
// three GenDPR phases react to:
//
//   - a rare-allele tail that the MAF phase must remove,
//   - haplotype blocks of correlated adjacent SNPs that the LD phase must
//     thin to independent representatives, and
//   - case/reference frequency divergence (associated SNPs plus mild
//     stratification drift) that gives the LR-test real identification power
//     to bound.
type GeneratorConfig struct {
	// SNPs is the number of SNP positions L_des.
	SNPs int
	// CaseN is the number of case genomes across the whole federation.
	CaseN int
	// ReferenceN is the size of the public reference (control) panel.
	ReferenceN int
	// Seed makes generation deterministic.
	Seed int64

	// RareFraction is the fraction of SNPs whose reference MAF falls below
	// the usual 0.05 cutoff (drawn uniformly from [RareLow, RareHigh)).
	RareFraction float64
	// RareLow and RareHigh bound rare-SNP minor allele frequencies.
	RareLow, RareHigh float64
	// CommonLow and CommonHigh bound common-SNP minor allele frequencies.
	CommonLow, CommonHigh float64

	// BlockMeanLen is the mean haplotype-block length in SNPs; block
	// boundaries are drawn geometrically. Values <= 1 disable LD structure.
	BlockMeanLen float64
	// WithinBlockCorr is the probability that an individual's allele at a
	// block-internal SNP copies its allele at the previous SNP, creating
	// high pairwise r^2 within blocks.
	WithinBlockCorr float64
	// BlockFreqJitter perturbs per-SNP frequencies around the block base
	// frequency so blocks are not perfectly homogeneous.
	BlockFreqJitter float64

	// AssociatedFraction is the fraction of SNPs genuinely associated with
	// the phenotype: their case frequency is shifted by EffectSize.
	AssociatedFraction float64
	// EffectSize is the absolute case-frequency shift at associated SNPs.
	EffectSize float64
	// Drift adds uniform(-Drift, +Drift) stratification noise to every
	// case-population frequency, mimicking cohort heterogeneity.
	Drift float64
}

// DefaultGeneratorConfig returns a configuration whose shape mirrors the
// paper's evaluation: the reference panel defaults to the 13,035 control
// genomes of the AMD dataset (scaled when snps/caseN are small).
func DefaultGeneratorConfig(snps, caseN int, seed int64) GeneratorConfig {
	refN := 13035
	if caseN < 1000 {
		// Keep quick tests quick: a reference panel comparable in size to
		// the case population preserves all statistical behaviour.
		refN = caseN
		if refN < 50 {
			refN = 50
		}
	}
	// The default mix is calibrated against the funnel shape of the paper's
	// dbGaP evaluation (Table 4): at 14,860 genomes the MAF phase retains
	// roughly 30-45% of SNPs and the LD phase then keeps only ~5-10% of the
	// survivors — real genomes sit in long haplotype blocks and carry a
	// heavy rare-variant tail.
	return GeneratorConfig{
		SNPs:               snps,
		CaseN:              caseN,
		ReferenceN:         refN,
		Seed:               seed,
		RareFraction:       0.58,
		RareLow:            0.005,
		RareHigh:           0.045,
		CommonLow:          0.05,
		CommonHigh:         0.50,
		BlockMeanLen:       12,
		WithinBlockCorr:    0.96,
		BlockFreqJitter:    0.02,
		AssociatedFraction: 0.05,
		EffectSize:         0.08,
		Drift:              0.015,
	}
}

// Validate checks the configuration for structural errors. Float settings
// must be finite: a NaN compares false with every draw, so means nothing.
func (c GeneratorConfig) Validate() error {
	for _, v := range []float64{c.RareFraction, c.RareLow, c.RareHigh, c.CommonLow, c.CommonHigh,
		c.BlockMeanLen, c.WithinBlockCorr, c.BlockFreqJitter, c.AssociatedFraction, c.EffectSize, c.Drift} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("genome: generator settings must be finite, got %v", v)
		}
	}
	switch {
	case c.SNPs <= 0:
		return fmt.Errorf("genome: generator needs SNPs > 0, got %d", c.SNPs)
	case c.CaseN <= 0:
		return fmt.Errorf("genome: generator needs CaseN > 0, got %d", c.CaseN)
	case c.ReferenceN <= 0:
		return fmt.Errorf("genome: generator needs ReferenceN > 0, got %d", c.ReferenceN)
	case c.RareFraction < 0 || c.RareFraction > 1:
		return fmt.Errorf("genome: RareFraction %v outside [0,1]", c.RareFraction)
	case c.RareLow < 0 || c.RareHigh > 1 || c.RareLow > c.RareHigh:
		return fmt.Errorf("genome: rare MAF range [%v,%v] not within [0,1] in order", c.RareLow, c.RareHigh)
	case c.CommonLow < 0 || c.CommonHigh > 1 || c.CommonLow > c.CommonHigh:
		return fmt.Errorf("genome: common MAF range [%v,%v] not within [0,1] in order", c.CommonLow, c.CommonHigh)
	case c.AssociatedFraction < 0 || c.AssociatedFraction > 1:
		return fmt.Errorf("genome: AssociatedFraction %v outside [0,1]", c.AssociatedFraction)
	case c.WithinBlockCorr < 0 || c.WithinBlockCorr >= 1:
		return fmt.Errorf("genome: WithinBlockCorr %v outside [0,1)", c.WithinBlockCorr)
	case c.BlockFreqJitter < 0 || c.EffectSize < 0 || c.Drift < 0:
		return fmt.Errorf("genome: BlockFreqJitter %v, EffectSize %v and Drift %v must be >= 0",
			c.BlockFreqJitter, c.EffectSize, c.Drift)
	}
	return nil
}

// Generate produces a deterministic synthetic cohort for the configuration.
//
// The same Seed gives the same cohort, bit for bit, that the math/rand
// stream always has: the layout draws through rand.New over a copy of that
// stream, and sample consumes the rest as per-cell rand.Float64 calls would.
// Population digests and the per-cell loop in generate_test.go pin this, and
// benchmark/golden.json pins what the protocol computes from it.
func Generate(cfg GeneratorConfig) (*Cohort, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := newStream(cfg.Seed)
	blockStart, caseFreq, refFreq, associated := layout(cfg, rand.New(src))
	return &Cohort{
		Case:           sample(cfg.CaseN, caseFreq, blockStart, cfg.WithinBlockCorr, src),
		Reference:      sample(cfg.ReferenceN, refFreq, blockStart, cfg.WithinBlockCorr, src),
		TrueAssociated: associated,
	}, nil
}

// layout draws everything but the genotypes: the haplotype blocks, the
// reference and case frequencies, and the associated SNPs.
func layout(cfg GeneratorConfig, rng *rand.Rand) (blockStart []bool, caseFreq, refFreq []float64, associated []int) {
	blockStart = layoutBlocks(cfg, rng)
	refFreq = layoutFrequencies(cfg, rng, blockStart)

	caseFreq = make([]float64, cfg.SNPs)
	for l, p := range refFreq {
		caseFreq[l] = clampFreq(p + (rng.Float64()*2-1)*cfg.Drift)
	}
	associated = pickAssociated(cfg, rng)
	for _, l := range associated {
		shift := cfg.EffectSize
		if rng.Intn(2) == 0 {
			shift = -shift
		}
		caseFreq[l] = clampFreq(caseFreq[l] + shift)
	}
	return blockStart, caseFreq, refFreq, associated
}

// layoutBlocks marks which SNP positions start a new haplotype block.
func layoutBlocks(cfg GeneratorConfig, rng *rand.Rand) []bool {
	start := make([]bool, cfg.SNPs)
	if cfg.SNPs > 0 {
		start[0] = true
	}
	if cfg.BlockMeanLen <= 1 {
		for l := range start {
			start[l] = true
		}
		return start
	}
	pBreak := 1 / cfg.BlockMeanLen
	for l := 1; l < cfg.SNPs; l++ {
		start[l] = rng.Float64() < pBreak
	}
	return start
}

// layoutFrequencies draws per-SNP reference minor-allele frequencies, keeping
// SNPs inside a block close to the block's base frequency.
func layoutFrequencies(cfg GeneratorConfig, rng *rand.Rand, blockStart []bool) []float64 {
	freq := make([]float64, cfg.SNPs)
	var base float64
	for l := 0; l < cfg.SNPs; l++ {
		if blockStart[l] {
			if rng.Float64() < cfg.RareFraction {
				base = cfg.RareLow + rng.Float64()*(cfg.RareHigh-cfg.RareLow)
			} else {
				base = cfg.CommonLow + rng.Float64()*(cfg.CommonHigh-cfg.CommonLow)
			}
		}
		freq[l] = clampFreq(base + (rng.Float64()*2-1)*cfg.BlockFreqJitter)
	}
	return freq
}

func pickAssociated(cfg GeneratorConfig, rng *rand.Rand) []int {
	k := int(float64(cfg.SNPs) * cfg.AssociatedFraction)
	if k == 0 {
		return nil
	}
	perm := rng.Perm(cfg.SNPs)[:k]
	out := make([]int, k)
	copy(out, perm)
	return out
}

// sample draws n genomes. Within a haplotype block each individual copies its
// previous allele with probability corr, producing the within-block linkage
// disequilibrium the LD phase must detect.
//
// It consumes src as the per-cell loop in generate_test.go does through
// rand.Float64: a block start takes one draw against freq[l], any other SNP
// one against corr and, when the copy breaks, one against freq[l]. On integer
// thresholds (see threshold) a run of copies is a scan of consecutive outputs.
// Individuals are drawn 64 at a time into a row-major stripe, which is
// transposed into the matrix's columns while it is still in cache.
func sample(n int, freq []float64, blockStart []bool, corr float64, src *stream) *Matrix {
	m := NewMatrix(n, len(freq))
	tf := make([]uint64, len(freq))
	for l, p := range freq {
		tf[l] = threshold(p)
	}
	tc := threshold(corr)
	var bounds []int
	for l, start := range blockStart {
		if start {
			bounds = append(bounds, l)
		}
	}
	bounds = append(bounds, len(freq))
	stride := (len(freq) + wordBits - 1) / wordBits
	stripe := make([]uint64, wordBits*stride)
	for i0 := 0; i0 < n; i0 += wordBits {
		clear(stripe)
		for k := range min(wordBits, n-i0) {
			row := stripe[k*stride : (k+1)*stride]
			for b := 1; b < len(bounds); b++ {
				src.block(row, bounds[b-1], bounds[b], tf, tc)
			}
		}
		m.putStripe(i0/wordBits, stripe)
	}
	return m
}

// putStripe stores individuals 64·bi..64·bi+63 into word bi of every column
// and adds them to the counts. stripe holds them row-major, individual k's
// SNP l at bit l%64 of stripe[k*stride+l/64]; rows past N() must be zero.
func (m *Matrix) putStripe(bi int, stripe []uint64) {
	stride := len(stripe) / wordBits
	var blk [wordBits]uint64
	for w := range stride {
		var any uint64
		for k := range blk {
			blk[k] = stripe[k*stride+w]
			any |= blk[k]
		}
		if any == 0 {
			continue // the column words are already zero
		}
		transpose64(&blk)
		c0 := w * wordBits
		for j := range min(wordBits, m.l-c0) {
			m.words[(c0+j)*m.wpc+bi] = blk[j]
			m.counts[c0+j] += int64(bits.OnesCount64(blk[j]))
		}
	}
}

// transpose64 transposes a 64x64 bit block in place: bit j of word k moves to
// bit k of word j (LSB-first on both axes). The recursive block-swap runs in
// 6 rounds of masked exchanges instead of 4096 single-bit moves.
func transpose64(a *[wordBits]uint64) {
	mask := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < wordBits; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & mask
			a[k+j] ^= t
			a[k] ^= t << uint(j)
		}
		mask ^= mask << uint(j>>1)
	}
}

// block writes one individual's alleles at the haplotype block [lo, hi) into
// row: tf holds the per-SNP allele thresholds, tc the copy threshold.
func (s *stream) block(row []uint64, lo, hi int, tf []uint64, tc uint64) {
	for l := lo; l < hi; {
		// l takes a fresh allele: it starts the block or its copy broke.
		minor := s.float() < tf[l]
		end := l + 1 // [l, end) carries l's allele
		for end < hi {
			w := s.window(hi - end)
			r := 0
			for r < len(w) && w[r]&int63Mask < tc {
				r++
			}
			end += r
			s.pos += r
			if end == hi {
				break
			}
			s.pos++
			if w[r]&int63Mask < floatOne {
				break // a broken copy, not an output rand.Float64 redraws
			}
		}
		if minor {
			setRange(row, l, end)
		}
		l = end
	}
}

// setRange sets bits [lo, hi) of row.
func setRange(row []uint64, lo, hi int) {
	for lo < hi {
		end := min(hi, (lo/wordBits+1)*wordBits)
		row[lo/wordBits] |= (1<<uint(end-lo) - 1) << (uint(lo) % wordBits)
		lo = end
	}
}

func clampFreq(p float64) float64 {
	const lo, hi = 0.001, 0.95
	return min(max(p, lo), hi)
}

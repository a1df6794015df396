// Package core implements the GenDPR release-assessment protocol: the three
// verification phases (MAF, LD, LR-test), the centralized SecureGenome
// baseline, the naïve distributed baseline, and collusion-tolerant
// evaluation. The phases are pure functions over aggregated intermediate
// data; the centralized and distributed pipelines share them, which is what
// makes GenDPR's output bit-identical to the centralized baseline (Table 4).
package core

import (
	"fmt"

	"gendpr/internal/lrtest"
)

// Config carries the privacy-assessment parameters. The defaults follow the
// paper's evaluation, which adopts SecureGenome's suggested settings.
type Config struct {
	// MAFCutoff removes SNPs whose pooled minor-allele frequency is below
	// this value (paper: 0.05).
	MAFCutoff float64
	// LDCutoff is the chi-square p-value below which two SNPs are declared
	// dependent (paper: 1e-5).
	LDCutoff float64
	// LR configures the likelihood-ratio test (paper: α=0.1, β=0.9).
	LR lrtest.Params
	// PaperChiSquare selects the paper's simplified association statistic
	// for SNP ranking instead of the standard Pearson 2x2 form.
	PaperChiSquare bool
}

// DefaultConfig returns the paper's evaluation settings.
func DefaultConfig() Config {
	return Config{
		MAFCutoff:      0.05,
		LDCutoff:       1e-5,
		LR:             lrtest.DefaultParams(),
		PaperChiSquare: true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MAFCutoff < 0 || c.MAFCutoff >= 1 {
		return fmt.Errorf("core: MAF cutoff %v outside [0,1)", c.MAFCutoff)
	}
	if c.LDCutoff <= 0 || c.LDCutoff >= 1 {
		return fmt.Errorf("core: LD cutoff %v outside (0,1)", c.LDCutoff)
	}
	if err := c.LR.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// CollusionPolicy selects how many honest-but-curious colluders the
// assessment must tolerate.
type CollusionPolicy struct {
	// F is the number of colluding members to tolerate; 0 disables
	// collusion tolerance (the base protocol).
	F int
	// Conservative evaluates every f in 1..G−1 instead of a fixed F
	// (the paper's most conservative mode). When set, F is ignored.
	Conservative bool
}

// Validate checks the policy against the federation size.
func (p CollusionPolicy) Validate(g int) error {
	if g <= 0 {
		return fmt.Errorf("core: federation size %d invalid", g)
	}
	if p.Conservative {
		if g < 2 {
			return fmt.Errorf("core: conservative collusion tolerance needs at least 2 members, got %d", g)
		}
		return nil
	}
	if p.F < 0 || p.F >= g {
		return fmt.Errorf("core: colluder count %d outside [0,%d]", p.F, g-1)
	}
	return nil
}

package analysis

import (
	"strconv"
)

// forbiddenRandImports are the predictable-PRNG packages the privacy-critical
// code must never use: a seeded generator lets a colluding host replay
// enclave randomness (oblivious shuffles, key material, backoff jitter),
// voiding the access-pattern and unlinkability arguments of the paper's
// threat model.
var forbiddenRandImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// NewCryptoRand returns the analyzer forbidding math/rand imports inside the
// given privacy-critical scopes. Test files are exempt by construction (the
// loader never parses them); production code injects randomness through
// a source backed by internal/crand.
func NewCryptoRand(scopes []Scope) *Analyzer {
	return &Analyzer{
		Name:   "cryptorand",
		Doc:    "privacy-critical packages must draw randomness from crypto/rand (internal/crand), never a seeded PRNG",
		Scopes: scopes,
		Run: func(p *Pass) {
			for _, f := range p.Files {
				for _, imp := range f.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil || !forbiddenRandImports[path] {
						continue
					}
					p.Reportf(imp.Pos(),
						"%s imported in privacy-critical package %s: enclave randomness must be unpredictable to the host; inject a crypto/rand-backed source (internal/crand)",
						path, p.Pkg.Path)
				}
			}
		},
	}
}

// Package fixture exercises the checkpointplain analyzer: per-individual
// data must never be persisted through the checkpoint layer — not even
// sealed — and checkpoint structs must be structurally post-aggregation.
// The test registers saveState as the fixture's checkpoint sink.
package fixture

// Genomes is the fixture's per-individual secret.
//
//gendpr:secret
type Genomes struct {
	rows [][]byte
}

//gendpr:source(individual): raw genotype rows
func loadGenomes() *Genomes { return &Genomes{} }

//gendpr:source(aggregate): cohort counts
func counts() []int64 { return nil }

//gendpr:declassifier: stand-in for AEAD sealing
func sealBytes(b []byte) []byte { return b }

// saveState is the fixture checkpoint sink (registered by the test).
func saveState(b []byte) {}

func encode(c []int64) []byte { return nil }

// state is scanned structurally: a field that can hold per-individual data
// is a finding even without an observed flow.
type state struct {
	Counts []int64
	Rows   *Genomes // want "checkpoint struct field state.Rows can hold per-individual data"
}

func persistRaw() {
	g := loadGenomes()
	saveState(g.rows[0]) // want "per-individual data persisted through a checkpoint"
}

// Sealing does not rescue a checkpoint: the ciphertext outlives the enclave.
func persistSealed() {
	g := loadGenomes()
	saveState(sealBytes(g.rows[0])) // want "per-individual data persisted through a checkpoint"
}

// Aggregate state is exactly what checkpoints are for: no finding.
func persistAggregate() {
	saveState(encode(counts()))
}

// countKernel and sumKernel are bodyless, as assembly routines are: the
// engine has no body to summarize, so a result carries its arguments'
// taint unless the spec declares the function. The test declares sumKernel
// an aggregator and leaves countKernel undeclared.
func countKernel(g *Genomes) []byte

func sumKernel(g *Genomes) []byte

func persistUndeclaredKernel() {
	g := loadGenomes()
	saveState(countKernel(g)) // want "per-individual data persisted through a checkpoint"
}

func persistDeclaredKernel() {
	g := loadGenomes()
	saveState(sumKernel(g))
}

// A return inside a function literal leaves the literal, not the function
// around it: header's result is a constant however per-individual its
// closure's result is, so persisting it is no finding.
func header() []byte {
	g := loadGenomes()
	row := func() []byte { return g.rows[0] }
	_ = row
	return []byte("GDPR")
}

func persistHeader() {
	saveState(header())
}

// The calls in a literal's returns are still evaluated: a sink reached from
// one is a finding.
func persistInClosure() func() int {
	g := loadGenomes()
	return func() int {
		return saveAndCount(g.rows[0]) // want "per-individual data reaches a checkpoint"
	}
}

func saveAndCount(b []byte) int {
	saveState(b)
	return len(b)
}

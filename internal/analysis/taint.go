package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
)

// DeclassMode classifies a declassifier table entry.
type DeclassMode int

const (
	// DeclassSeal demotes raw taint to sealed (AEAD encryption): the value
	// may leave the enclave, but per-individual data stays barred from
	// checkpoints.
	DeclassSeal DeclassMode = iota
	// DeclassRelease drops taint entirely: the function's output is the
	// aggregate release product (or public metadata) the protocol exists
	// to produce.
	DeclassRelease
	// DeclassUnseal restores sealed taint to raw (decryption back inside
	// the trust boundary).
	DeclassUnseal
)

// SinkSpec describes one entry of the sink table.
type SinkSpec struct {
	// Kind is the human-readable description used in diagnostics.
	Kind string
	// ArgStart skips leading arguments that cannot carry payload.
	ArgStart int
	// ConnArg is the index (receiver-first for method calls) of a
	// connection argument whose static type can exempt the call; -1 when
	// the sink has none.
	ConnArg int
	// Checkpoint marks persistence sinks checked by checkpointplain
	// instead of plaintext-egress sinks checked by secretflow.
	Checkpoint bool
	// LogLeak routes static-type findings at this sink to the logleak
	// analyzer (formatting/logging/error sinks) instead of secretflow.
	LogLeak bool
}

// TaintSpec is the policy the taint engine enforces: which functions produce
// secrets, which calls declassify them, and where they must not go. Keys are
// types.Func.FullName strings ("fmt.Errorf",
// "(*gendpr/internal/genome.Matrix).AlleleCounts") and qualified type names
// ("gendpr/internal/genome.Matrix"). Source annotations in the analyzed code
// (//gendpr:secret, //gendpr:source, //gendpr:declassifier) extend the
// tables without touching this struct.
type TaintSpec struct {
	SecretTypes   map[string]SecretClass
	SourceFuncs   map[string]SecretClass
	Declassifiers map[string]DeclassMode
	Sinks         map[string]SinkSpec
	// FormatFuncs build strings from their operands: they propagate taint
	// and are logleak sites for secret-typed arguments.
	FormatFuncs map[string]bool
	// ReleaseTypes lists structs that ARE the released product (reports,
	// selections, release documents): writes into their fields carry no
	// taint, so reading them back anywhere — examples printing a power
	// figure — is clean. Qualified names ("gendpr/internal/core.Report").
	ReleaseTypes []string
	// ExemptConnType is the static type proving a transport send leaves
	// the enclave AEAD-protected.
	ExemptConnType string
	// NoEgressSinkPkgs lists packages whose own bodies skip egress-sink
	// checks (the transport layer legitimately writes ciphertext to
	// writers; the checkpoint codec writes state to disk).
	NoEgressSinkPkgs []string
	// NoCkptSinkPkgs lists packages whose own bodies skip checkpoint-sink
	// checks (the checkpoint package implements the sinks).
	NoCkptSinkPkgs []string
	// CheckpointStructPkgs lists packages whose struct declarations are
	// structurally checked: no field may be able to hold per-individual
	// data.
	CheckpointStructPkgs []string
	// Oblivious, when non-nil, enables the obliviousflow analyzer: inside
	// its Scopes, per-individual data must not steer control flow or memory
	// addressing except through a declared barrier.
	Oblivious *ObliviousSpec
	// OrderSinks maps function keys to a description of the order-sensitive
	// statistic they compute: order-nondeterministic values (map iteration,
	// select races, goroutine fan-in) must not reach them, because every
	// federation member must derive bit-identical Table-4/Table-5 figures.
	OrderSinks map[string]string
	// OrderBarriers lists functions whose result is order-deterministic
	// regardless of input ordering (sorts, indexed merges). The
	// //gendpr:ordered annotation extends this table in source.
	OrderBarriers map[string]bool
}

// ObliviousSpec configures the obliviousflow analyzer.
type ObliviousSpec struct {
	// Scopes are the access-pattern-critical regions: packages (and
	// optionally specific files) whose code executes where the paper's §2
	// host adversary observes control flow and memory addresses.
	Scopes []Scope
	// Barriers are the sanctioned data-oblivious primitives, keyed like
	// every other engine table by types.Func.FullName. Their bodies are
	// exempt (the branch/index inside IS the constant-time or ORAM
	// implementation) and taint handed to them does not propagate blame to
	// callers. The //gendpr:oblivious annotation extends this table.
	Barriers map[string]bool
}

// DefaultObliviousSpec returns GenDPR's oblivious-execution policy: the
// enclave-resident packages that implement Path ORAM, secret sharing,
// Paillier and the oblivious Provider, with the ORAM access path and the
// constant-time select/compare helpers as sanctioned barriers.
func DefaultObliviousSpec() *ObliviousSpec {
	return &ObliviousSpec{
		Scopes: []Scope{
			{PathPrefix: "gendpr/internal/oram"},
			{PathPrefix: "gendpr/internal/oblivious"},
			{PathPrefix: "gendpr/internal/secshare"},
			{PathPrefix: "gendpr/internal/paillier"},
			{PathPrefix: "gendpr/internal/enclave"},
			{PathPrefix: "gendpr/internal/core", Files: []string{"oblivious_member.go"}},
		},
		Barriers: map[string]bool{
			// The ORAM access path: its stash walk and position-map reads
			// are the oblivious storage primitive itself; every real access
			// touches a full root-to-leaf path regardless of the index.
			"(*gendpr/internal/oram.ORAM).access": true,
			"(*gendpr/internal/oram.ORAM).Read":   true,
			"(*gendpr/internal/oram.ORAM).Write":  true,
			"(*gendpr/internal/oram.Store).Get":   true,
			"(*gendpr/internal/oram.Store).Put":   true,
			// Constant-time selection over secret operands.
			"gendpr/internal/oblivious.Select64":    true,
			"gendpr/internal/oblivious.SelectFloat": true,
			"gendpr/internal/oblivious.LessBit":     true,
			// The ct helper set: branchless select/compare over uint64
			// masks. Each also carries a //gendpr:oblivious annotation; the
			// table entries keep the spec authoritative on its own.
			"gendpr/internal/oblivious/ct.Select": true,
			"gendpr/internal/oblivious/ct.Eq":     true,
			"gendpr/internal/oblivious/ct.Less":   true,
			"gendpr/internal/oblivious/ct.Bit":    true,
		},
	}
}

// DefaultTaintSpec returns GenDPR's policy: the secret types and accessors
// of the genome/lrtest/seal layers, the enclave-boundary declassifiers, and
// the host-visible sinks of the threat model (STATIC_ANALYSIS.md documents
// every table).
func DefaultTaintSpec() *TaintSpec {
	logSink := func(kind string) SinkSpec { return SinkSpec{Kind: kind, ConnArg: -1, LogLeak: true} }
	writeSink := func(kind string) SinkSpec { return SinkSpec{Kind: kind, ConnArg: -1} }
	spec := &TaintSpec{
		SecretTypes: map[string]SecretClass{
			"gendpr/internal/genome.Matrix":     ClassIndividual,
			"gendpr/internal/genome.ColumnBits": ClassIndividual,
			"gendpr/internal/genome.Cohort":     ClassIndividual,
			"gendpr/internal/lrtest.BitMatrix":  ClassIndividual,
			"gendpr/internal/lrtest.Genotypes":  ClassIndividual,
			"gendpr/internal/seal.KeyPair":      ClassIndividual,
			"gendpr/internal/seal.SigningKey":   ClassIndividual,
			"gendpr/internal/lrtest.LogRatios":  ClassAggregate,
			"gendpr/internal/genome.PairStats":  ClassAggregate,
		},
		SourceFuncs: map[string]SecretClass{
			// Per-individual sources: generators, decoders, key material.
			"gendpr/internal/genome.Generate":        ClassIndividual,
			"gendpr/internal/genome.MatrixFromBytes": ClassIndividual,
			// Single-genotype accessors: their result IS one individual's
			// allele, the unit the oblivious machinery exists to hide.
			"(*gendpr/internal/genome.Matrix).Get":       ClassIndividual,
			"(*gendpr/internal/genome.Matrix).GetBit":    ClassIndividual,
			"(*gendpr/internal/genome.Matrix).RowWords":  ClassIndividual,
			"gendpr/internal/lrtest.DecodeWireBit":       ClassIndividual,
			"gendpr/internal/lrtest.DecodePatternWire":   ClassIndividual,
			"gendpr/internal/seal.NewKey":                ClassIndividual,
			"gendpr/internal/seal.HKDF":                  ClassIndividual,
			"(*gendpr/internal/seal.KeyPair).SessionKey": ClassIndividual,

			// Aggregators: these read per-individual data but their result
			// is a cohort-level statistic — still secret until released,
			// but legitimate checkpoint content.
			"(*gendpr/internal/genome.Matrix).AlleleCount":     ClassAggregate,
			"(*gendpr/internal/genome.Matrix).AlleleCounts":    ClassAggregate,
			"(*gendpr/internal/genome.Matrix).PairCount":       ClassAggregate,
			"(*gendpr/internal/genome.Matrix).PairStats":       ClassAggregate,
			"(*gendpr/internal/genome.ColumnBits).AlleleCount": ClassAggregate,
			"(*gendpr/internal/genome.ColumnBits).PairCount":   ClassAggregate,
			"(*gendpr/internal/genome.ColumnBits).PairStats":   ClassAggregate,
			"gendpr/internal/genome.Frequencies":               ClassAggregate,
			"gendpr/internal/genome.PairStatsFromCounts":       ClassAggregate,
			// The Provider contract: its accessors return cohort-level
			// statistics regardless of how the implementation stores the
			// shard (LocalMember pre-aggregates, ObliviousMember popcounts
			// ORAM columns). LRMatrix is deliberately absent — its result
			// is a per-individual matrix and stays ClassIndividual.
			"(gendpr/internal/core.Provider).Counts":                  ClassAggregate,
			"(gendpr/internal/core.Provider).CaseN":                   ClassAggregate,
			"(gendpr/internal/core.Provider).PairStats":               ClassAggregate,
			"(gendpr/internal/core.BatchPairProvider).PairStatsBatch": ClassAggregate,
			"(*gendpr/internal/core.ObliviousMember).Counts":          ClassAggregate,
			"(*gendpr/internal/core.ObliviousMember).PairStats":       ClassAggregate,
			"gendpr/internal/lrtest.NewLogRatios":                     ClassAggregate,
			"gendpr/internal/lrtest.Threshold":                        ClassAggregate,
			"gendpr/internal/lrtest.Power":                            ClassAggregate,
			"gendpr/internal/lrtest.DiscriminabilityOrderBit":         ClassAggregate,
			"(*gendpr/internal/lrtest.Adversary).Score":               ClassAggregate,
			"(*gendpr/internal/lrtest.Adversary).DetectionPower":      ClassAggregate,
			// Assembly kernels have no Go body to summarize, so without an
			// entry their results would carry their arguments' per-individual
			// taint. Each yields counts or column sums over all rows.
			"gendpr/internal/lrtest.addCountAVX512":   ClassAggregate,
			"gendpr/internal/lrtest.addBandAVX512":    ClassAggregate,
			"gendpr/internal/lrtest.columnSumsAVX512": ClassAggregate,
		},
		Declassifiers: map[string]DeclassMode{
			// Sealing: AEAD protection for enclave egress.
			"gendpr/internal/seal.Encrypt":                     DeclassSeal,
			"(*gendpr/internal/enclave.Enclave).Seal":          DeclassSeal,
			"(*gendpr/internal/enclave.Enclave).SealVersioned": DeclassSeal,
			// Unsealing inside the trust boundary: decrypted payloads are
			// re-classified by the decoder that parses them (the decoder
			// sources above), not by the ciphertext they came from.
			"gendpr/internal/seal.Decrypt":                       DeclassRelease,
			"(*gendpr/internal/enclave.Enclave).Unseal":          DeclassRelease,
			"(*gendpr/internal/enclave.Enclave).UnsealVersioned": DeclassRelease,
			// Release boundary: the safe-selection result and the release
			// document are the assessed product the protocol publishes.
			"gendpr/internal/lrtest.SelectSafeBitWithOrder": DeclassRelease,
			"gendpr/internal/release.Build":                 DeclassRelease,
			// Wire-codec plumbing is class-neutral: the bytes a Decoder walks
			// are framing, and secrets re-enter through the semantic decoders
			// declared as sources (lrtest wire decoders, genome matrix
			// parsers). Without this the shared Decoder buffer smears
			// per-individual taint onto every decoded aggregate module-wide.
			"(*gendpr/internal/wire.Decoder).Uint64":   DeclassRelease,
			"(*gendpr/internal/wire.Decoder).Int64":    DeclassRelease,
			"(*gendpr/internal/wire.Decoder).Int":      DeclassRelease,
			"(*gendpr/internal/wire.Decoder).Float64":  DeclassRelease,
			"(*gendpr/internal/wire.Decoder).Bool":     DeclassRelease,
			"(*gendpr/internal/wire.Decoder).Blob":     DeclassRelease,
			"(*gendpr/internal/wire.Decoder).String":   DeclassRelease,
			"(*gendpr/internal/wire.Decoder).Int64s":   DeclassRelease,
			"(*gendpr/internal/wire.Decoder).Ints":     DeclassRelease,
			"(*gendpr/internal/wire.Decoder).Float64s": DeclassRelease,
			// Public derivations of key material.
			"(*gendpr/internal/seal.KeyPair).PublicBytes": DeclassRelease,
			"(*gendpr/internal/seal.SigningKey).Sign":     DeclassRelease,
			"(*gendpr/internal/seal.SigningKey).Public":   DeclassRelease,
			// Assessment entry points: their *Report / result values are the
			// released product of the protocol (thresholded power figures and
			// the safe-SNP release), assessed safe to publish by construction.
			"gendpr/internal/core.RunAssessment":                   DeclassRelease,
			"gendpr/internal/core.RunCentralized":                  DeclassRelease,
			"gendpr/internal/core.RunDistributed":                  DeclassRelease,
			"gendpr/internal/core.RunNaive":                        DeclassRelease,
			"gendpr.AssessCentralized":                             DeclassRelease,
			"gendpr.AssessDistributed":                             DeclassRelease,
			"gendpr.AssessNaive":                                   DeclassRelease,
			"gendpr.AssessFederated":                               DeclassRelease,
			"gendpr.AssessFederatedTCP":                            DeclassRelease,
			"gendpr/internal/federation.RunInProcess":              DeclassRelease,
			"gendpr/internal/federation.RunInProcessWithFailover":  DeclassRelease,
			"gendpr/internal/federation.RunOverTCP":                DeclassRelease,
			"(*gendpr/internal/federation.Leader).RunLinksContext": DeclassRelease,
		},
		Sinks: map[string]SinkSpec{
			"fmt.Print":                       logSink("fmt output (host-visible)"),
			"fmt.Printf":                      logSink("fmt output (host-visible)"),
			"fmt.Println":                     logSink("fmt output (host-visible)"),
			"fmt.Fprint":                      logSink("fmt stream output"),
			"fmt.Fprintf":                     logSink("fmt stream output"),
			"fmt.Fprintln":                    logSink("fmt stream output"),
			"log.Print":                       logSink("log output (host-visible)"),
			"log.Printf":                      logSink("log output (host-visible)"),
			"log.Println":                     logSink("log output (host-visible)"),
			"log.Fatal":                       logSink("log output (host-visible)"),
			"log.Fatalf":                      logSink("log output (host-visible)"),
			"log.Fatalln":                     logSink("log output (host-visible)"),
			"log.Panic":                       logSink("log output (host-visible)"),
			"log.Panicf":                      logSink("log output (host-visible)"),
			"log.Panicln":                     logSink("log output (host-visible)"),
			"(*log.Logger).Print":             logSink("log output (host-visible)"),
			"(*log.Logger).Printf":            logSink("log output (host-visible)"),
			"(*log.Logger).Println":           logSink("log output (host-visible)"),
			"(*log.Logger).Fatal":             logSink("log output (host-visible)"),
			"(*log.Logger).Fatalf":            logSink("log output (host-visible)"),
			"fmt.Errorf":                      logSink("an error message"),
			"errors.New":                      logSink("an error message"),
			"(io.Writer).Write":               writeSink("an io.Writer"),
			"io.WriteString":                  writeSink("an io.Writer"),
			"(*os.File).Write":                writeSink("a file write"),
			"(*os.File).WriteString":          writeSink("a file write"),
			"(*os.File).WriteAt":              writeSink("a file write"),
			"os.WriteFile":                    writeSink("a file write"),
			"(*bufio.Writer).Write":           writeSink("a buffered stream write"),
			"(*bufio.Writer).WriteString":     writeSink("a buffered stream write"),
			"(*encoding/json.Encoder).Encode": writeSink("a JSON stream write"),

			"(gendpr/internal/transport.Conn).Send":  {Kind: "an unsecured transport send", ConnArg: 0},
			"gendpr/internal/transport.SendDeadline": {Kind: "an unsecured transport send", ConnArg: 0},
			"gendpr/internal/transport.SendContext":  {Kind: "an unsecured transport send", ConnArg: 1},

			"gendpr/internal/checkpoint.Encode":            {Kind: "a checkpoint (checkpoint.Encode)", ConnArg: -1, Checkpoint: true},
			"(gendpr/internal/checkpoint.Store).Save":      {Kind: "a checkpoint (Store.Save)", ConnArg: -1, Checkpoint: true},
			"(*gendpr/internal/checkpoint.MemStore).Save":  {Kind: "a checkpoint (Store.Save)", ConnArg: -1, Checkpoint: true},
			"(*gendpr/internal/checkpoint.FileStore).Save": {Kind: "a checkpoint (Store.Save)", ConnArg: -1, Checkpoint: true},
		},
		FormatFuncs: map[string]bool{
			"fmt.Sprint":   true,
			"fmt.Sprintf":  true,
			"fmt.Sprintln": true,
			"fmt.Append":   true,
			"fmt.Appendf":  true,
			"fmt.Appendln": true,
		},
		ReleaseTypes: []string{
			"gendpr/internal/core.Report",
			"gendpr/internal/core.Selection",
			"gendpr/internal/core.Timings",
			"gendpr/internal/federation.Result",
			"gendpr/internal/federation.TrafficStats",
			"gendpr/internal/release.Document",
			"gendpr/internal/release.SNPStatistic",
			"gendpr/internal/release.Parameters",
		},
		ExemptConnType: "*gendpr/internal/transport.SecureConn",
		NoEgressSinkPkgs: []string{
			"gendpr/internal/transport",
			"gendpr/internal/checkpoint",
			// vcf is operator-side tooling: it writes synthetic cohorts the
			// operator generated locally, outside the enclave boundary.
			"gendpr/internal/vcf",
		},
		NoCkptSinkPkgs:       []string{"gendpr/internal/checkpoint"},
		CheckpointStructPkgs: []string{"gendpr/internal/checkpoint"},
		Oblivious:            DefaultObliviousSpec(),
		OrderSinks: map[string]string{
			// Table-4/Table-5 statistic constructors: every member must feed
			// them identically-ordered inputs or the federated floats drift.
			"gendpr/internal/stats.MAF":                       "stats.MAF (minor allele frequency)",
			"gendpr/internal/stats.NewSingleTable":            "stats.NewSingleTable (per-SNP contingency table)",
			"gendpr/internal/stats.LDPValue":                  "stats.LDPValue (LD chi-square p-value)",
			"gendpr/internal/stats.ChiSquareSurvival":         "stats.ChiSquareSurvival",
			"gendpr/internal/lrtest.NewLogRatios":             "lrtest.NewLogRatios (Table-4 LR vector)",
			"gendpr/internal/lrtest.Threshold":                "lrtest.Threshold (LR decision threshold)",
			"gendpr/internal/lrtest.Power":                    "lrtest.Power (detection-power figure)",
			"gendpr/internal/lrtest.SelectSafeBitWithOrder":   "lrtest.SelectSafeBitWithOrder (released SNP selection)",
			"gendpr/internal/lrtest.DiscriminabilityOrderBit": "lrtest.DiscriminabilityOrderBit (greedy LD scan order)",
		},
		OrderBarriers: map[string]bool{
			"sort.Float64s":         true,
			"sort.Ints":             true,
			"sort.Strings":          true,
			"sort.Slice":            true,
			"sort.SliceStable":      true,
			"sort.Sort":             true,
			"sort.Stable":           true,
			"slices.Sort":           true,
			"slices.SortFunc":       true,
			"slices.SortStableFunc": true,
		},
	}
	return spec
}

// annotationDirective matches //gendpr:secret, //gendpr:source(class),
// //gendpr:declassifier[(mode)], //gendpr:oblivious and //gendpr:ordered,
// each with an optional trailing ": note".
var annotationDirective = regexp.MustCompile(`^//gendpr:(secret|source|declassifier|oblivious|ordered)(?:\(([a-z]+)\))?(?:\s*:.*)?$`)

func classFromArg(arg string) SecretClass {
	switch arg {
	case "aggregate":
		return ClassAggregate
	default: // "", "individual"
		return ClassIndividual
	}
}

// engineFinding is one taint-engine diagnostic, attributed to an analyzer
// and the package it belongs to.
type engineFinding struct {
	analyzer string
	pkgPath  string
	pos      token.Pos
	msg      string
}

// taintEngine holds the module-wide analysis state shared by the secretflow,
// logleak and checkpointplain analyzers.
type taintEngine struct {
	mod  *Module
	spec *TaintSpec
	cg   *callGraph

	// Annotation-derived extensions of the spec tables.
	secretFields map[*types.Var]SecretClass
	secretTypes  map[*types.TypeName]SecretClass
	srcAnnot     map[*types.Func]SecretClass
	declAnnot    map[*types.Func]DeclassMode
	obvAnnot     map[*types.Func]bool
	ordAnnot     map[*types.Func]bool

	// Module-level fixpoint state.
	summaries  map[*types.Func]*funcSummary
	fieldTaint map[*types.Var]taintVal
	changed    bool

	// releaseFields holds every field of a spec.ReleaseTypes struct: writes
	// into them are dropped, so reading a released product back is clean.
	releaseFields map[*types.Var]bool

	// sup holds the module's gendpr:allow directives. The engine honors them
	// while building summaries: a justified sink use neither reports nor
	// propagates blame to its callers.
	sup suppressions

	typeClass map[types.Type]SecretClass

	noEgressSink map[string]bool
	noCkptSink   map[string]bool

	findings []engineFinding
	seen     map[string]bool
}

type namedSummary struct {
	name string
	sum  *funcSummary
}

func newTaintEngine(mod *Module, spec *TaintSpec) *taintEngine {
	eng := &taintEngine{
		mod:           mod,
		spec:          spec,
		cg:            buildCallGraph(mod),
		secretFields:  make(map[*types.Var]SecretClass),
		secretTypes:   make(map[*types.TypeName]SecretClass),
		srcAnnot:      make(map[*types.Func]SecretClass),
		declAnnot:     make(map[*types.Func]DeclassMode),
		obvAnnot:      make(map[*types.Func]bool),
		ordAnnot:      make(map[*types.Func]bool),
		summaries:     make(map[*types.Func]*funcSummary),
		fieldTaint:    make(map[*types.Var]taintVal),
		typeClass:     make(map[types.Type]SecretClass),
		noEgressSink:  make(map[string]bool),
		noCkptSink:    make(map[string]bool),
		releaseFields: make(map[*types.Var]bool),
		sup:           make(suppressions),
		seen:          make(map[string]bool),
	}
	for _, p := range spec.NoEgressSinkPkgs {
		eng.noEgressSink[p] = true
	}
	for _, p := range spec.NoCkptSinkPkgs {
		eng.noCkptSink[p] = true
	}
	var discard []Diagnostic
	for _, pkg := range mod.Packages {
		collectSuppressions(pkg.Fset, pkg.Files, eng.sup, &discard)
	}
	eng.collectAnnotations()
	eng.run()
	return eng
}

// collectAnnotations scans declaration comments for //gendpr:secret,
// //gendpr:source and //gendpr:declassifier directives.
func (eng *taintEngine) collectAnnotations() {
	for _, pkg := range eng.mod.Packages {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch decl := d.(type) {
				case *ast.FuncDecl:
					kind, arg, ok := directiveIn(decl.Doc)
					if !ok {
						continue
					}
					fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
					if fn == nil {
						continue
					}
					switch kind {
					case "source", "secret":
						eng.srcAnnot[fn] = classFromArg(arg)
					case "declassifier":
						eng.declAnnot[fn] = declassModeFromArg(arg)
					case "oblivious":
						eng.obvAnnot[fn] = true
					case "ordered":
						eng.ordAnnot[fn] = true
					}
				case *ast.GenDecl:
					eng.collectTypeAnnotations(pkg, decl)
				}
			}
		}
	}
}

func declassModeFromArg(arg string) DeclassMode {
	switch arg {
	case "release":
		return DeclassRelease
	case "unseal":
		return DeclassUnseal
	default: // "", "seal"
		return DeclassSeal
	}
}

func (eng *taintEngine) collectTypeAnnotations(pkg *Package, decl *ast.GenDecl) {
	if decl.Tok != token.TYPE && decl.Tok != token.VAR {
		return
	}
	for _, s := range decl.Specs {
		ts, ok := s.(*ast.TypeSpec)
		if !ok {
			continue
		}
		release := false
		if pkg.Path != "" {
			qual := pkg.Path + "." + ts.Name.Name
			for _, r := range eng.spec.ReleaseTypes {
				if r == qual {
					release = true
				}
			}
		}
		typeCls := SecretClass(0)
		if kind, arg, ok := firstDirective(decl.Doc, ts.Doc, ts.Comment); ok && kind == "secret" {
			typeCls = classFromArg(arg)
			if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
				eng.secretTypes[tn] = typeCls
			}
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok || st.Fields == nil {
			continue
		}
		for _, field := range st.Fields.List {
			if release {
				for _, name := range field.Names {
					if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
						eng.releaseFields[v] = true
					}
				}
			}
			// A type-level secret annotation covers every field of the
			// struct; field-level annotations refine individual fields.
			if typeCls != 0 {
				for _, name := range field.Names {
					if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
						eng.secretFields[v] |= typeCls
					}
				}
			}
			kind, arg, ok := firstDirective(field.Doc, field.Comment)
			if !ok || kind != "secret" {
				continue
			}
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					eng.secretFields[v] |= classFromArg(arg)
				}
			}
		}
	}
}

func firstDirective(groups ...*ast.CommentGroup) (kind, arg string, ok bool) {
	for _, g := range groups {
		if kind, arg, ok = directiveIn(g); ok {
			return kind, arg, true
		}
	}
	return "", "", false
}

func directiveIn(g *ast.CommentGroup) (kind, arg string, ok bool) {
	if g == nil {
		return "", "", false
	}
	for _, c := range g.List {
		if m := annotationDirective.FindStringSubmatch(c.Text); m != nil {
			return m[1], m[2], true
		}
	}
	return "", "", false
}

// run drives the module fixpoint and the final reporting passes.
func (eng *taintEngine) run() {
	decls := eng.sortedDecls()
	for iter := 0; iter < 64; iter++ {
		eng.changed = false
		for _, fd := range decls {
			fa := newFuncAnalysis(eng, fd, false)
			sum := fa.run()
			if sum.mergeInto(eng.summaryFor(fd.fn)) {
				eng.changed = true
			}
		}
		if !eng.changed {
			break
		}
	}
	for _, fd := range decls {
		newFuncAnalysis(eng, fd, true).run()
	}
	eng.checkpointStructPass()
}

func (eng *taintEngine) sortedDecls() []*funcDecl {
	decls := make([]*funcDecl, 0, len(eng.cg.funcs))
	for _, fd := range eng.cg.funcs {
		decls = append(decls, fd)
	}
	sort.Slice(decls, func(i, j int) bool {
		a := decls[i].pkg.Fset.Position(decls[i].decl.Pos())
		b := decls[j].pkg.Fset.Position(decls[j].decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return decls
}

func (eng *taintEngine) summaryFor(fn *types.Func) *funcSummary {
	s, ok := eng.summaries[fn]
	if !ok {
		s = &funcSummary{}
		if sig, ok := fn.Type().(*types.Signature); ok {
			s.nparams = sig.Params().Len()
			if sig.Recv() != nil {
				s.nparams++
			}
			s.results = make([]taintVal, sig.Results().Len())
		}
		eng.summaries[fn] = s
	}
	return s
}

// summariesFor returns the summaries standing behind a call to fn: the
// function's own summary when it has a module body, or the summaries of the
// in-module implementations when fn is an interface method.
func (eng *taintEngine) summariesFor(fn *types.Func, impls []*types.Func) []*namedSummary {
	var out []*namedSummary
	if _, ok := eng.cg.funcs[fn]; ok {
		out = append(out, &namedSummary{name: eng.cg.name(fn), sum: eng.summaryFor(fn)})
	}
	for _, m := range impls {
		if _, ok := eng.cg.funcs[m]; ok {
			out = append(out, &namedSummary{name: eng.cg.name(m), sum: eng.summaryFor(m)})
		}
	}
	return out
}

// obliviousBarrier reports whether fn is a sanctioned data-oblivious
// primitive: its body is exempt from oblivious-flow checks (the branch or
// table walk inside IS the constant-time implementation) and per-individual
// taint handed to it does not propagate blame to callers.
func (eng *taintEngine) obliviousBarrier(fn *types.Func) bool {
	if fn == nil || eng.spec.Oblivious == nil {
		return false
	}
	return eng.spec.Oblivious.Barriers[eng.cg.name(fn)] || eng.obvAnnot[fn]
}

// obliviousScope reports whether fd's body executes inside an
// access-pattern-critical region, where the host adversary observes control
// flow and memory addresses.
func (eng *taintEngine) obliviousScope(fd *funcDecl) bool {
	if eng.spec.Oblivious == nil {
		return false
	}
	base := filepath.Base(fd.pkg.Fset.Position(fd.decl.Pos()).Filename)
	for _, s := range eng.spec.Oblivious.Scopes {
		if s.matches(fd.pkg.Path, base) {
			return true
		}
	}
	return false
}

// orderBarrier reports whether a call to fn (engine table key `key`) yields
// order-deterministic output regardless of input arrival order.
func (eng *taintEngine) orderBarrier(fn *types.Func, key string) bool {
	if eng.spec.OrderBarriers[key] {
		return true
	}
	return fn != nil && eng.ordAnnot[fn]
}

func (eng *taintEngine) declassifierFor(fn *types.Func, key string) (DeclassMode, bool) {
	if mode, ok := eng.declAnnot[fn]; ok {
		return mode, true
	}
	mode, ok := eng.spec.Declassifiers[key]
	return mode, ok
}

func (eng *taintEngine) sourceFor(fn *types.Func, key string) (SecretClass, bool) {
	if cls, ok := eng.srcAnnot[fn]; ok {
		return cls, true
	}
	cls, ok := eng.spec.SourceFuncs[key]
	return cls, ok
}

// writeField routes taint flowing into a struct field: the concrete class
// component becomes a module-global fact, the parameter-relative component
// lands in the current function's summary.
func (eng *taintEngine) writeField(f *types.Var, t taintVal, fa *funcAnalysis) {
	if eng.releaseFields[f] {
		// Fields of release-product structs are the declared output of the
		// protocol: storing into them is the release boundary.
		return
	}
	conc := taintVal{raw: t.raw, sealed: t.sealed}
	if !conc.empty() {
		u := eng.fieldTaint[f].union(conc)
		if u != eng.fieldTaint[f] {
			eng.fieldTaint[f] = u
			eng.changed = true
			fa.changed = true
		}
	}
	if t.params != 0 || t.sealedParams != 0 {
		rel := taintVal{params: t.params, sealedParams: t.sealedParams}
		if fa.sum.fieldWrites == nil {
			fa.sum.fieldWrites = make(map[*types.Var]taintVal)
		}
		u := fa.sum.fieldWrites[f].union(rel)
		if u != fa.sum.fieldWrites[f] {
			fa.sum.fieldWrites[f] = u
			fa.changed = true
		}
	}
}

// typeSecretClass reports which secret classes a value of type T can carry,
// from the type tables, annotations, and structural containment.
func (eng *taintEngine) typeSecretClass(T types.Type) SecretClass {
	if T == nil {
		return 0
	}
	if cls, ok := eng.typeClass[T]; ok {
		return cls
	}
	eng.typeClass[T] = 0 // cycle guard
	cls := eng.typeSecretClassSlow(T)
	eng.typeClass[T] = cls
	return cls
}

func (eng *taintEngine) typeSecretClassSlow(T types.Type) SecretClass {
	switch t := T.(type) {
	case *types.Named:
		tn := t.Obj()
		if cls, ok := eng.secretTypes[tn]; ok {
			return cls
		}
		if tn.Pkg() != nil {
			if cls, ok := eng.spec.SecretTypes[tn.Pkg().Path()+"."+tn.Name()]; ok {
				return cls
			}
		}
		return eng.typeSecretClass(t.Underlying())
	case *types.Pointer:
		return eng.typeSecretClass(t.Elem())
	case *types.Slice:
		return eng.typeSecretClass(t.Elem())
	case *types.Array:
		return eng.typeSecretClass(t.Elem())
	case *types.Chan:
		return eng.typeSecretClass(t.Elem())
	case *types.Map:
		return eng.typeSecretClass(t.Key()) | eng.typeSecretClass(t.Elem())
	case *types.Struct:
		var cls SecretClass
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i)
			cls |= eng.secretFields[f]
			cls |= eng.typeSecretClass(f.Type())
		}
		return cls
	}
	return 0
}

func (eng *taintEngine) addFinding(analyzer string, pkg *Package, pos token.Pos, msg string) {
	p := pkg.Fset.Position(pos)
	key := analyzer + "\x00" + p.String() + "\x00" + msg
	if eng.seen[key] {
		return
	}
	eng.seen[key] = true
	eng.findings = append(eng.findings, engineFinding{
		analyzer: analyzer,
		pkgPath:  pkg.Path,
		pos:      pos,
		msg:      msg,
	})
}

func (eng *taintEngine) findingsFor(analyzer, pkgPath string) []engineFinding {
	var out []engineFinding
	for _, f := range eng.findings {
		if f.analyzer == analyzer && f.pkgPath == pkgPath {
			out = append(out, f)
		}
	}
	return out
}

// checkpointStructPass structurally checks the checkpoint packages: no
// declared struct field may be able to hold per-individual data, regardless
// of whether a flow to it was observed.
func (eng *taintEngine) checkpointStructPass() {
	want := make(map[string]bool, len(eng.spec.CheckpointStructPkgs))
	for _, p := range eng.spec.CheckpointStructPkgs {
		want[p] = true
	}
	for _, pkg := range eng.mod.Packages {
		if !want[pkg.Path] || pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, s := range gd.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok || st.Fields == nil {
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							v, ok := pkg.Info.Defs[name].(*types.Var)
							if !ok {
								continue
							}
							if eng.typeSecretClass(v.Type())&ClassIndividual != 0 {
								eng.addFinding("checkpointplain", pkg, name.Pos(),
									"checkpoint struct field "+ts.Name.Name+"."+name.Name+
										" can hold per-individual data; checkpoints must be declared post-aggregation")
							}
						}
					}
				}
			}
		}
	}
}

// TaintRegistry shares one taint-engine run per module across the three
// taint analyzers — the engine is module-global, the analyzers report its
// findings per package.
type TaintRegistry struct {
	spec  *TaintSpec
	mu    sync.Mutex
	cache map[*Module]*taintEngine
}

// NewTaintRegistry builds a registry enforcing spec.
func NewTaintRegistry(spec *TaintSpec) *TaintRegistry {
	return &TaintRegistry{spec: spec, cache: make(map[*Module]*taintEngine)}
}

func (r *TaintRegistry) engine(mod *Module) *taintEngine {
	r.mu.Lock()
	defer r.mu.Unlock()
	if eng, ok := r.cache[mod]; ok {
		return eng
	}
	eng := newTaintEngine(mod, r.spec)
	r.cache[mod] = eng
	return eng
}

func taintAnalyzer(name, doc string, reg *TaintRegistry) *Analyzer {
	return &Analyzer{
		Name: name,
		Doc:  doc,
		Run: func(p *Pass) {
			if p.Mod == nil {
				return
			}
			eng := reg.engine(p.Mod)
			for _, f := range eng.findingsFor(name, p.Pkg.Path) {
				p.Reportf(f.pos, "%s", f.msg)
			}
		},
	}
}

// NewSecretFlow reports plaintext flows of secret data (genotype matrices,
// LR matrices, MAF/pair-stat vectors, key material) into host-visible sinks:
// logging, error construction, writer/file output, and unsecured transport
// sends. Flows through the declassifier table (sealing, release building,
// safe selection) are silent.
func NewSecretFlow(reg *TaintRegistry) *Analyzer {
	return taintAnalyzer("secretflow",
		"secret data must not reach host-visible sinks in plaintext; only sealed or released forms may leave the enclave boundary",
		reg)
}

// NewLogLeak reports secret-typed values reaching formatting, logging and
// error construction — including %v on structs containing secret fields —
// based on static types, independent of observed value flow.
func NewLogLeak(reg *TaintRegistry) *Analyzer {
	return taintAnalyzer("logleak",
		"values whose static type can hold secret data must not be formatted into strings, log output or error messages",
		reg)
}

// NewCheckpointPlain reports per-individual data reaching checkpoint
// persistence — sealed or not, because checkpoints outlive the enclave —
// and checkpoint struct fields that could hold such data.
func NewCheckpointPlain(reg *TaintRegistry) *Analyzer {
	return taintAnalyzer("checkpointplain",
		"checkpoints must contain only declared post-aggregation state; per-individual data is never persisted, even encrypted",
		reg)
}

// NewObliviousFlow reports per-individual data steering control flow or
// memory addressing inside the access-pattern-critical packages: a
// ClassIndividual-tainted value must not decide a branch, bound a loop,
// index memory, size an allocation or feed a panic, except inside a declared
// oblivious barrier (constant-time selects, the ORAM access path).
func NewObliviousFlow(reg *TaintRegistry) *Analyzer {
	return taintAnalyzer("obliviousflow",
		"inside enclave-resident oblivious code, per-individual data must not decide branches, bound loops, or address memory except through declared constant-time or ORAM barriers",
		reg)
}

// NewDivergentFloat reports order-nondeterministic values (map iteration,
// select races, unordered goroutine fan-in) flowing into the Table-4/Table-5
// statistics that every federation member must reproduce bit-identically,
// unless the value passed an ordering barrier (sort, indexed merge).
func NewDivergentFloat(reg *TaintRegistry) *Analyzer {
	return taintAnalyzer("divergentfloat",
		"order-nondeterministic values must pass an ordering barrier before feeding statistics that members must derive bit-identically",
		reg)
}

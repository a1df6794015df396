#!/usr/bin/env sh
# CI gate for the GenDPR repo: formatting, vet, build, project-invariant
# lint (see STATIC_ANALYSIS.md), and the race-enabled test suite.
# Run from anywhere inside the repo; exits non-zero on the first failure.
#
# This gate checks that the benchmarks still build and run; it measures
# nothing. A change that claims (or risks) a speed difference is measured
# with scripts/ab.sh <ref> [workload…], which runs the end-to-end benchmark
# on <ref> and on the working tree in alternating pairs and prints the
# verdict per metric (benchmark/README.md § "Measuring a change").
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== fallback cross-build (arm64) =="
# Off amd64 the lrtest kernels are the Go loops alone (kernels_other.go);
# vet checks that build's declarations, and the module must build there.
GOARCH=arm64 go vet ./internal/lrtest
GOARCH=arm64 go build ./...

echo "== analysis fast path =="
# The lint suite's own unit and fixture tests, -short so the whole-module
# self-lint is skipped: a broken analyzer fails here in seconds, before the
# full gendpr-lint run pays for module-wide type-checking.
go test -short ./internal/analysis/

echo "== gendpr-lint =="
# Volatile CI artifacts live under the gitignored artifacts/ dir. The JSON
# report stays at the root and tracked: regenerating it here shows any drift
# in the findings or the analyzer list in the diff. The lint binary is built once so the -v timings do not include
# go-run compilation.
mkdir -p artifacts
go build -o artifacts/gendpr-lint ./cmd/gendpr-lint
./artifacts/gendpr-lint -v -json ./... > lint-report.json 2> artifacts/lint-timings.txt || {
    echo "gendpr-lint findings (see lint-report.json):" >&2
    ./artifacts/gendpr-lint ./... >&2 || true
    exit 1
}
grep -E "load total|analyzers total" artifacts/lint-timings.txt || true

echo "== suppression budget =="
# Every //gendpr:allow directive needs a justification in source (enforced
# by the lint itself) AND must fit the recorded budget in STATIC_ANALYSIS.md.
# Growing the count without raising the budget there fails CI, so each new
# suppression is a reviewed documentation change, never a drive-by.
# Only directive lines count: a comment line that starts with one, not a
# mention of the syntax in the analysis suite's docs or messages.
allows=$(grep -rE --include='*.go' -e '^\s*//gendpr:allow\(' . | grep -v '/testdata/' | grep -v '_test.go' | wc -l | tr -d ' ')
budget=$(sed -n 's/.*<!-- suppression-budget: \([0-9][0-9]*\) -->.*/\1/p' STATIC_ANALYSIS.md)
if [ -z "$budget" ]; then
    echo "STATIC_ANALYSIS.md is missing its '<!-- suppression-budget: N -->' marker" >&2
    exit 1
fi
if [ "$allows" -gt "$budget" ]; then
    echo "suppression budget exceeded: $allows //gendpr:allow directives, budget $budget" >&2
    echo "new suppressions must be justified in STATIC_ANALYSIS.md and the budget raised there" >&2
    exit 1
fi
echo "$allows directive(s) within budget $budget"
# Per-analyzer breakdown, so a budget bump is auditable per invariant. Every
# analyzer in the suite — including obliviousflow and divergentfloat — is
# covered by the same budget: a directive naming any of them counts above.
grep -rEoh --include='*.go' --exclude='*_test.go' --exclude-dir=testdata \
    -e '^\s*//gendpr:allow\([a-z, ]+\)' . \
    | sed 's|^[[:space:]]*//gendpr:allow(||; s|)||' | tr ',' '\n' | tr -d ' ' | grep -v '^$' \
    | sort | uniq -c | sort -rn | sed 's/^/  /'

echo "== size (advisory, no gate) =="
# The "less code" figures ROADMAP.md and CHANGES.md quote: non-test lines of
# the protocol packages and the lint suite, the module's total non-test lines
# outside benchmark/ and testdata/, exported funcs per package, and the
# suppression count. Nothing here fails the gate; a change that claims to
# shrink the code quotes these lines rather than hand counts.
for dir in internal/core internal/federation internal/lrtest internal/checkpoint internal/genome \
    internal/transport internal/service internal/analysis cmd/gendpr-lint; do
    lines=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l | tr -d ' ')
    echo "  non-test lines $dir: $lines"
done
total=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' ! -path './.git/*' \
    -exec cat {} + | wc -l | tr -d ' ')
echo "  non-test lines outside benchmark/ and testdata/: $total"
go list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do
    funcs=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec grep -hE '^func (\([^)]*\) )?[A-Z]' {} + | wc -l | tr -d ' ')
    if [ "$funcs" -gt 0 ]; then
        echo "  exported funcs $pkg: $funcs"
    fi
done
echo "  //gendpr:allow directives: $allows"

echo "== go test -race =="
go test -race ./...

echo "== chaos smoke (short fault sweep) =="
# A fixed-seed subset of the chaos harness: one fault per direction through
# Phase 1 and Phase 3, both the rescue and the quorum-degradation paths.
# The full sweep runs with the suite above; this step keeps the injected
# fault points visible as their own gate.
go test -short -run '^TestChaos' ./internal/federation/

echo "== chaos soak (short, fixed seed) =="
# A fixed-seed slice of the randomized fault-composition soak: transport
# faults, Byzantine perturbations, leader kills, and checkpoint corruption
# drawn from one PRNG so every failure reproduces exactly (scripts/soak.sh
# runs the full-length version). The seed and the blame/class summary are
# archived in artifacts/soak-report.txt.
go test -short -count=1 -run '^TestChaosSoak$' -v ./internal/federation/ > artifacts/soak-report.txt 2>&1 || {
    cat artifacts/soak-report.txt >&2
    exit 1
}
grep -E "soak seed" artifacts/soak-report.txt || true

echo "== leader-kill smoke (failover + resume) =="
# Kill the leader at each phase boundary and assert re-election over the
# survivors, resume from the checkpoint, and a bit-identical selection; the
# tcp/ case kills it after Phase 2 with the members behind loopback sockets,
# through the same election loop.
go test -short -run '^TestChaosLeaderFailover$' ./internal/federation/

echo "== lattice-vs-legacy smoke =="
# The combination lattice's equivalence contract: the incremental Gray-chain
# Phase 3 must match the dense per-combination reference bit for bit — every
# combination's selection and the power — across federation sizes, every
# collusion policy, both oblivious modes, and lowered power thresholds that
# make every combination reject SNPs.
go test -short -run '^(TestLatticeMatchesLegacyGolden|TestPhase3BitKernelGolden)$' ./internal/core/

echo "== concurrent Phase 3 and pair lifetime (race, 10 runs) =="
# The collusion chains of Phases 2 and 3 run on every core: the same
# assessment on one worker and on four must agree on selections, checkpoint
# saves, combination records, each member's pair requests and wire messages,
# and the LD pair statistics must leave the enclave and the snapshots at the
# Phase-2 boundary; over a sweep of cohorts, federation sizes and policies no
# member may answer more pair batches than under the single-path predictor;
# and a degraded restart re-asks each survivor for Phase 2 in one batch, no
# pair twice within an attempt, and nothing of the member it excluded.
# Repeated under the race detector because the chains reach the shared pair
# table, accounting, timings and checkpoint state.
go test -race -count=10 -run '^(TestPhase3ScheduleDeterministic|TestLatticeResumeConservativeConcurrent|TestPairBytesReleasedAtPhase2Boundary|TestResumeAtLDAsksNoPairs|TestPhase2NeverMoreRoundsThanSinglePath|TestDegradedRestartReasksSurvivors)$' ./internal/core/
go test -race -count=10 -run '^TestFederationConservativeMessageCount$' ./internal/federation/

echo "== checkpoint file: crash consistency and resume (race, 5 runs) =="
# A FileStore keeps one file per namespace, a state record followed by
# appended frames: a load after every save, torn tails of both frame kinds,
# a corrupt frame of each kind, a corrupt first record, a fault at every
# save step, a failed append, Clear/ClearAll, and a G=5 run killed
# mid-Phase-3 and resumed from the file by a fresh store instance.
go test -race -count=5 -run '^(TestFileStoreLogRoundTrip|TestFileStoreTornLogTail|TestFileStoreTornWriteFallback|TestFileStoreCorruptFrameFallsBack|TestFileStoreCorruptBaseIgnoresItsLog|TestFileStoreFaultHook|TestFileStoreFailedAppend|TestFileStoreClearRemovesLogs|TestReadFrameBoundsBeforeAllocating)$' ./internal/checkpoint/
go test -race -count=5 -run '^TestFileStoreResumeFromLog$' ./internal/core/
# The file decoder on arbitrary bytes: no panic, the intact prefix splits at
# frame boundaries, and the torn/corrupt verdict is stable under appending.
go test -run '^$' -fuzz '^FuzzDecodeLog$' -fuzztime 10s ./internal/checkpoint/

echo "== packed wire decoders (fuzz) =="
# The counts and pair-reply decoders on arbitrary bytes: no panic, claimed
# lengths held against the bytes that arrived, and every accepted payload
# re-encodes to exactly its own bytes (the equivocation ledger digests raw
# payloads, so the packed forms must be canonical).
go test -run '^$' -fuzz '^FuzzDecodeCounts$' -fuzztime 10s ./internal/federation/
go test -run '^$' -fuzz '^FuzzDecodePairBatchReply$' -fuzztime 10s ./internal/federation/
# The one decoder of a member's Phase-3 bytes in the leader: no panic, an
# accepted payload is a pattern (zero representatives, tail bits clear) whose
# re-encoding decodes back equal, and a payload stating another column count
# than the request's is rejected before anything of its shape is allocated.
go test -run '^$' -fuzz '^FuzzDecodePatternWire$' -fuzztime 10s ./internal/lrtest/

echo "== Phase-3 vector kernels vs the Go loops (race, 3 runs) =="
# The AVX-512 kernels against the Go loops they replace, bit for bit: the
# kernels one by one over edge shapes, a paper-shape selection, a G=5
# conservative assessment, and the fuzzer on arbitrary small matrices. On a
# CPU without AVX-512F the vector legs skip with a log line. The case side
# as member patterns scored where they lie must match their concatenation
# (means, order, selection, both oblivious modes, both paths), and the
# leader enclave must hold each member pattern once: no concatenation, no
# per-worker copy.
go test -race -count=3 -run '^(TestKernelsMatchGoLoops|TestBandKthMatchesSort|TestSelectionMatchesGoLoops|TestAssessmentMatchesGoLoops|TestPartsMatchConcatenation|TestSelectSafePartsRejectsShapes|FuzzKernels)$' ./internal/lrtest/
go test -race -count=3 -run '^TestPhase3HoldsEachPatternOnce$' ./internal/core/
go test -run '^$' -fuzz '^FuzzKernels$' -fuzztime 10s ./internal/lrtest/

echo "== service smoke (daemon + drain) =="
# The always-on deployment end to end: member nodes serving concurrent
# sessions, the leader daemon with admission control, a duplicate-fingerprint
# request resuming from the retained checkpoint, an over-quota request shed
# with a structured 429, and a SIGTERM drain that accounts for every request.
go test -count=1 -run '^TestCLIServiceDaemon$' .

echo "== service mixed load: slots and ledger (race, 10 runs) =="
# 200 requests from 8 workers against the real in-process federation: shapes
# that repeat exercise coalescing and checkpoint reuse, 1 ms deadlines expire
# in the queue (one of them certainly, behind two held slots), and a drain at
# submission 150 sheds the rest. After the drain no slot or queue entry may
# be left and the admission ledger must balance. Repeated under the race
# detector because admission, the workers and the drain share the ledger.
go test -race -count=10 -run '^TestMixedLoadLedgerBalances$' ./internal/service/

echo "== paper tables: exact columns at scale 1 =="
# The paper's tables regenerated at full size, their exact columns (Table 4's
# funnels, Table 5's counts, Table 3's enclave KB, protocol bytes and
# messages) held against internal/bench/testdata, in ~5 s. The race pass
# above skips this test: it generates paper-size cohorts, which the race
# detector's instrumentation would stretch far past that.
go test -count=1 -run '^TestExactColumnsGolden$' ./internal/bench

echo "== bench smoke (1 iteration) =="
# One iteration of each of the six ablations (well under a second together):
# catches benchmarks that no longer compile or crash without paying for a
# real measurement run.
go test -run '^$' -bench '^BenchmarkAblation' -benchtime 1x . >/dev/null
# The per-layer Phase-3 benchmarks build their own paper-shape inputs (390
# columns x 13,035 + 14,860 rows), which takes well under a second; each
# has a /go and an /avx512 sub-benchmark, and BenchmarkSelectSafeBit a
# /parts5 pair at fed5_collusion's shape: the case side as five member
# patterns of 2,972 rows.
go test -run '^$' -bench '^(BenchmarkSelectSafeBit|BenchmarkAddColumnKth|BenchmarkAddColumnCount|BenchmarkDiscriminabilityOrderBit)$' \
    -benchtime 1x ./internal/lrtest >/dev/null
# The Phase-2 layer benchmark at a tenth of the paper's shape (1,000 SNPs x
# 1,486 genomes), without collusion and with five members under the
# conservative policy; the full-size sub-benchmarks are for measuring, not
# for CI.
go test -run '^$' -bench '^BenchmarkLDPhase$/^1000x1486$' -benchtime 1x ./internal/core >/dev/null
go test -run '^$' -bench '^BenchmarkLDPhase$/^1000x1486_g5$' -benchtime 1x ./internal/core >/dev/null
# One cohort at the service workloads' shape (1,000 SNPs x 7,430 cases plus
# the panel): generation samples and lays out every matrix the protocol
# reads, and no other gate runs it.
go test -run '^$' -bench '^BenchmarkGenerate$/^svc$' -benchtime 1x ./internal/genome >/dev/null
# One fsynced checkpoint save at a tenth of the fed5_collusion snapshot, each
# way a save lands: a rewrite, an appended state record, an appended
# combinations frame.
go test -run '^$' -bench '^BenchmarkFileStoreSave$/^tenth(_record|_append)?$' -benchtime 1x ./internal/checkpoint >/dev/null

echo "ALL CHECKS PASSED"

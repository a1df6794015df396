package federation

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"gendpr/internal/core"
	"gendpr/internal/enclave"
	"gendpr/internal/enclave/attest"
	"gendpr/internal/genome"
	"gendpr/internal/transport"
)

// A member has one reply format per phase: Phase 2 pairs always travel as a
// batch, and a Phase-3 request — its column list alone — is always answered
// with the genotype pattern, zero columns included.

// memberSession serves shard from a member enclave over an attested pipe and
// returns the leader's end, with every message kind it sends or receives
// counted into kinds. Cleanup ends the session with a result and requires a
// clean exit.
func memberSession(t *testing.T, shard *genome.Matrix, kinds map[uint16]int) *transport.SecureConn {
	t.Helper()
	authority, err := attest.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	platform, _ := enclave.NewPlatform()
	member, err := NewMember("m", shard, platform, authority)
	if err != nil {
		t.Fatal(err)
	}
	leaderPlatform, _ := enclave.NewPlatform()
	leaderEnc, err := leaderPlatform.Load(CodeIdentity, enclave.Config{})
	if err != nil {
		t.Fatal(err)
	}
	leaderEnd, memberEnd := transport.Pipe()
	served := make(chan error, 1)
	go func() { served <- member.ServeContext(context.Background(), memberEnd, ServeOptions{}) }()
	raw := transport.Conn(leaderEnd)
	if kinds != nil {
		raw = kindCounter{Conn: leaderEnd, mu: new(sync.Mutex), kinds: kinds}
	}
	conn, err := attestLeader(context.Background(), raw, authority, leaderEnc, 0, 0)
	if err != nil {
		t.Fatalf("attest: %v", err)
	}
	t.Cleanup(func() {
		// The result ends the session.
		result, err := encodeResult(nil, nil, nil, shard.L())
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(transport.Message{Kind: KindResult, Payload: result}); err != nil {
			t.Error(err)
		}
		if err := <-served; err != nil {
			t.Errorf("member stopped serving: %v", err)
		}
	})
	return conn
}

// ask sends one request and returns the member's reply.
func ask(t *testing.T, conn transport.Conn, kind uint16, payload []byte) transport.Message {
	t.Helper()
	if err := conn.Send(transport.Message{Kind: kind, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// requireProtocolError requires a KindError reply reporting ErrProtocol.
func requireProtocolError(t *testing.T, what string, reply transport.Message) {
	t.Helper()
	if reply.Kind != KindError || !strings.Contains(string(reply.Payload), ErrProtocol.Error()) {
		t.Fatalf("%s: reply kind %d %q, want KindError reporting %q", what, reply.Kind, reply.Payload, ErrProtocol)
	}
}

// TestMemberRefusesOnePairRequest: the one-pair kind is a protocol violation
// — a single pair is a batch of one — and the session survives it.
func TestMemberRefusesOnePairRequest(t *testing.T) {
	cohort := testCohort(t, 30, 40, 3)
	conn := memberSession(t, cohort.Case, nil)
	one, err := encodePairBatchRequest([][2]int{{0, 1}}, cohort.Case.L())
	if err != nil {
		t.Fatal(err)
	}
	requireProtocolError(t, "KindPairRequest", ask(t, conn, KindPairRequest, one))
	if reply := ask(t, conn, KindPairBatchRequest, one); reply.Kind != KindPairBatchReply {
		t.Fatalf("the same pair as a batch of one: reply kind %d, want KindPairBatchReply", reply.Kind)
	}
}

// TestMemberRefusesLRRequestTrailingBytes: a Phase-3 request is its column
// list and nothing after it; bytes past the list — where the two frequency
// vectors of the retired LR-matrix request went — are a protocol violation.
func TestMemberRefusesLRRequestTrailingBytes(t *testing.T) {
	cohort := testCohort(t, 30, 40, 3)
	conn := memberSession(t, cohort.Case, nil)
	cols := []int{2, 5}
	requireProtocolError(t, "two frequency vectors after the columns",
		ask(t, conn, KindLRRequest, append(encodeLRRequest(cols), make([]byte, 2*(8+8*len(cols)))...)))
	requireProtocolError(t, "one trailing byte", ask(t, conn, KindLRRequest, append(encodeLRRequest(cols), 0)))
	if reply := ask(t, conn, KindLRRequest, encodeLRRequest(cols)); reply.Kind != KindLRReply {
		t.Fatalf("the bare column list: reply kind %d, want KindLRReply", reply.Kind)
	}
}

// TestEmptyLDSetMatchesCentralized runs an assessment in which no SNP passes
// the MAF filter, so L″ is empty and Phase 3 asks every member for a pattern
// over zero columns; the members answer with zero-column patterns and the
// selection is the centralized one.
func TestEmptyLDSetMatchesCentralized(t *testing.T) {
	cohort := testCohort(t, 60, 90, 5)
	shards, err := cohort.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.MAFCutoff = 0.9 // a minor-allele frequency is at most 0.5
	central, err := core.RunCentralized(cohort, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInProcess(context.Background(), shards, cohort.Reference, cfg, core.CollusionPolicy{}, RunOptions{})
	if err != nil {
		t.Fatalf("RunInProcess: %v", err)
	}
	if len(res.Report.Selection.AfterLD) != 0 {
		t.Fatalf("L″ = %v, want it empty", res.Report.Selection.AfterLD)
	}
	if !res.Report.Selection.Equal(central.Selection) {
		t.Errorf("federation %v != centralized %v", res.Report.Selection, central.Selection)
	}

	// The same run, counting what crossed the wire: one zero-column pattern
	// request and reply per remote member.
	var mu sync.Mutex
	kinds := map[uint16]int{}
	count := func(_ int, conn transport.Conn) transport.Conn { return kindCounter{Conn: conn, mu: &mu, kinds: kinds} }
	if _, err := runElection(context.Background(), shards, cohort.Reference, cfg, core.CollusionPolicy{}, RunOptions{}, pipeChannel, chaosHooks{inject: count}); err != nil {
		t.Fatal(err)
	}
	if kinds[KindLRRequest] != 2 || kinds[KindLRReply] != 2 || kinds[KindError] != 0 {
		t.Errorf("%d pattern requests, %d replies, %d errors; want 2, 2, 0", kinds[KindLRRequest], kinds[KindLRReply], kinds[KindError])
	}
}

// remoteTo returns a remote provider over an attested session with a member
// serving shard, and the message kinds its connection carries.
func remoteTo(t *testing.T, shard *genome.Matrix) (*remoteProvider, map[uint16]int) {
	t.Helper()
	kinds := map[uint16]int{}
	return &remoteProvider{name: "m", ctx: context.Background(), conn: memberSession(t, shard, kinds)}, kinds
}

// TestRemoteLRMatrixMatchesLocal: the leader-side LR-matrix — the member's
// pattern skinned through the frequencies — is the member's own LR-matrix
// over the same shard, cell for cell, for column lists of every shape.
func TestRemoteLRMatrixMatchesLocal(t *testing.T) {
	cohort := testCohort(t, 97, 150, 9)
	shards, err := cohort.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	shard := shards[1]
	remote, _ := remoteTo(t, shard)
	local := core.NewLocalMember(shard)
	for name, cols := range map[string][]int{
		"empty":    {},
		"one":      {96},
		"unsorted": {40, 3, 77, 0, 12},
		"all":      allColumns(shard.L()),
	} {
		caseFreq := make([]float64, len(cols))
		refFreq := make([]float64, len(cols))
		for j := range cols {
			caseFreq[j], refFreq[j] = float64(j%7)/7, float64(j%5+1)/6
		}
		want, err := local.LRMatrix(cols, caseFreq, refFreq)
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.LRMatrix(cols, caseFreq, refFreq)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: remote LR-matrix differs from the member's own", name)
		}
	}
}

func allColumns(l int) []int {
	cols := make([]int, l)
	for j := range cols {
		cols[j] = j
	}
	return cols
}

// TestRemoteLRMatrixRejectsBadFrequencies: the requests core's member kinds
// reject (core.TestGatherRejectsBadColumns) are rejected through a remote
// provider too. Bad columns are the member's to refuse; bad frequency
// vectors never leave the leader.
func TestRemoteLRMatrixRejectsBadFrequencies(t *testing.T) {
	g := testCohort(t, 8, 10, 1).Case
	remote, kinds := remoteTo(t, g)
	for _, cols := range [][]int{{8}, {-1}, {0, 8}, {3, 3}} {
		freq := make([]float64, len(cols))
		for j := range freq {
			freq[j] = 0.5
		}
		if _, err := remote.LRMatrix(cols, freq, freq); !errors.Is(err, ErrMemberReported) {
			t.Errorf("LRMatrix(%v): %v, want the member's refusal", cols, err)
		}
	}
	asked := kinds[KindLRRequest]
	good := []float64{0.5, 0.5}
	for _, bad := range []float64{math.NaN(), 1.5, -0.5} {
		worse := []float64{0.5, bad}
		if _, err := remote.LRMatrix([]int{1, 2}, worse, good); err == nil {
			t.Errorf("LRMatrix accepted case frequency %v", bad)
		}
		if _, err := remote.LRMatrix([]int{1, 2}, good, worse); err == nil {
			t.Errorf("LRMatrix accepted reference frequency %v", bad)
		}
	}
	if _, err := remote.LRMatrix([]int{1, 2}, good, []float64{0.5}); err == nil {
		t.Error("LRMatrix accepted a reference vector one entry short")
	}
	if kinds[KindLRRequest] != asked {
		t.Errorf("%d pattern requests sent for rejected frequency vectors", kinds[KindLRRequest]-asked)
	}
}

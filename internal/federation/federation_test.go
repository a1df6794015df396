package federation

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gendpr/internal/core"
	"gendpr/internal/enclave"
	"gendpr/internal/enclave/attest"
	"gendpr/internal/genome"
	"gendpr/internal/transport"
	"gendpr/internal/wire"
)

func testCohort(t testing.TB, snps, caseN int, seed int64) *genome.Cohort {
	t.Helper()
	cohort, err := genome.Generate(genome.DefaultGeneratorConfig(snps, caseN, seed))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return cohort
}

func TestElectLeaderDeterministicAndInRange(t *testing.T) {
	nonces := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	idx, err := ElectLeader(nonces, 3)
	if err != nil {
		t.Fatal(err)
	}
	if idx < 0 || idx >= 3 {
		t.Fatalf("leader index %d out of range", idx)
	}
	again, err := ElectLeader(nonces, 3)
	if err != nil {
		t.Fatal(err)
	}
	if idx != again {
		t.Fatal("election must be deterministic in the nonces")
	}
	if _, err := ElectLeader(nonces, 2); err == nil {
		t.Error("nonce/member count mismatch must fail")
	}
	if _, err := ElectLeader([][]byte{nil, []byte("x")}, 2); err == nil {
		t.Error("empty nonce must fail")
	}
	if _, err := ElectLeader(nil, 0); err == nil {
		t.Error("empty federation must fail")
	}
}

func TestElectLeaderCoversAllIndices(t *testing.T) {
	// Different nonce sets must be able to elect different leaders.
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		nonces := [][]byte{{byte(i)}, {byte(i * 7)}, {byte(i * 13)}}
		idx, err := ElectLeader(nonces, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen[idx] = true
	}
	if len(seen) < 2 {
		t.Errorf("election highly skewed: only indices %v elected", seen)
	}
}

func TestInProcessFederationMatchesCentralized(t *testing.T) {
	cohort := testCohort(t, 120, 300, 51)
	cfg := core.DefaultConfig()
	central, err := core.RunCentralized(cohort, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := cohort.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInProcess(context.Background(), shards, cohort.Reference, cfg, core.CollusionPolicy{}, RunOptions{})
	if err != nil {
		t.Fatalf("RunInProcess: %v", err)
	}
	if !res.Report.Selection.Equal(central.Selection) {
		t.Errorf("federation %v != centralized %v", res.Report.Selection, central.Selection)
	}
	if res.LeaderIndex < 0 || res.LeaderIndex >= 4 {
		t.Errorf("leader index %d out of range", res.LeaderIndex)
	}
	// Every non-leader member must have received the broadcast selection.
	for i, sel := range res.MemberSelections {
		if i == res.LeaderIndex {
			if sel != nil {
				t.Errorf("leader slot %d has a member selection", i)
			}
			continue
		}
		if sel == nil {
			t.Errorf("member %d never received the result broadcast", i)
			continue
		}
		if !sel.Equal(res.Report.Selection) {
			t.Errorf("member %d received %v, want %v", i, *sel, res.Report.Selection)
		}
	}
}

func TestInProcessFederationWithCollusionPolicy(t *testing.T) {
	cohort := testCohort(t, 90, 240, 53)
	shards, err := cohort.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInProcess(context.Background(), shards, cohort.Reference, core.DefaultConfig(), core.CollusionPolicy{F: 1}, RunOptions{})
	if err != nil {
		t.Fatalf("RunInProcess: %v", err)
	}
	if res.Report.Combinations != 1+3 {
		t.Errorf("combinations=%d, want 4", res.Report.Combinations)
	}
	base, err := core.RunDistributed(shards, cohort.Reference, core.DefaultConfig(), core.CollusionPolicy{F: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The networked run must agree with the in-memory protocol — only the
	// transport differs. Shard-to-provider order differs with the elected
	// leader, but the per-phase intersections make the result order
	// independent.
	if !res.Report.Selection.Equal(base.Selection) {
		t.Errorf("networked %v != in-memory %v", res.Report.Selection, base.Selection)
	}
}

func TestTCPFederationMatchesInProcess(t *testing.T) {
	cohort := testCohort(t, 80, 200, 57)
	shards, err := cohort.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	overTCP, err := RunOverTCP(context.Background(), shards, cohort.Reference, cfg, core.CollusionPolicy{}, RunOptions{})
	if err != nil {
		t.Fatalf("RunOverTCP: %v", err)
	}
	inProc, err := RunInProcess(context.Background(), shards, cohort.Reference, cfg, core.CollusionPolicy{}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !overTCP.Report.Selection.Equal(inProc.Report.Selection) {
		t.Errorf("TCP %v != in-process %v", overTCP.Report.Selection, inProc.Report.Selection)
	}
}

func TestFederationTrafficAccounting(t *testing.T) {
	cohort := testCohort(t, 100, 260, 59)
	shards, err := cohort.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInProcess(context.Background(), shards, cohort.Reference, core.DefaultConfig(), core.CollusionPolicy{}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Traffic
	if tr.TotalBytes <= 0 || tr.TotalMessages <= 0 {
		t.Fatalf("traffic not recorded: %+v", tr)
	}
	if tr.PerMemberBytes[res.LeaderIndex] != 0 {
		t.Error("leader slot must carry no channel traffic")
	}
	var sum int64
	active := 0
	for i, b := range tr.PerMemberBytes {
		sum += b
		if i != res.LeaderIndex {
			if b <= 0 {
				t.Errorf("member %d exchanged no bytes", i)
			}
			active++
		}
	}
	if sum != tr.TotalBytes {
		t.Errorf("per-member sum %d != total %d", sum, tr.TotalBytes)
	}
	if active != 2 {
		t.Errorf("%d active members, want 2", active)
	}
	if tr.GenomeShipBytes <= tr.GenomePackedBytes {
		t.Error("VCF baseline must exceed the bit-packed lower bound")
	}
	// The protocol must beat shipping the VCF files (the paper's claim).
	if tr.SavingsFactor() <= 1 {
		t.Errorf("savings factor %.2f, want > 1 (protocol %d B vs genomes %d B)",
			tr.SavingsFactor(), tr.TotalBytes, tr.GenomeShipBytes)
	}
	if (TrafficStats{}).SavingsFactor() != 0 {
		t.Error("empty stats must report factor 0")
	}
}

func TestAttestationRejectsForeignAuthority(t *testing.T) {
	cohort := testCohort(t, 30, 40, 3)
	authorityA, err := attest.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	authorityB, err := attest.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	platformL, _ := enclave.NewPlatform()
	platformM, _ := enclave.NewPlatform()
	leader, err := NewLeader("leader", cohort.Case, platformL, authorityA)
	if err != nil {
		t.Fatal(err)
	}
	member, err := NewMember("member", cohort.Case, platformM, authorityB)
	if err != nil {
		t.Fatal(err)
	}

	leaderEnd, memberEnd := transport.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := member.ServeContext(context.Background(), memberEnd, ServeOptions{}); err == nil {
			t.Error("member accepted a quote from a foreign authority")
		}
	}()
	_, err = leader.RunLinksContext(context.Background(), []MemberLink{{Conn: leaderEnd, Name: "0"}}, cohort.Reference, core.DefaultConfig(), core.CollusionPolicy{}, RunOptions{})
	if err == nil {
		t.Fatal("leader accepted a quote from a foreign authority")
	}
	leaderEnd.Close()
	wg.Wait()
}

func TestAttestationRejectsWrongCode(t *testing.T) {
	// A party whose enclave runs different code fails the measurement pin
	// even with a genuine quote from the shared authority.
	authority, err := attest.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	platformGood, _ := enclave.NewPlatform()
	platformEvil, _ := enclave.NewPlatform()
	good, err := platformGood.Load(CodeIdentity, enclave.Config{})
	if err != nil {
		t.Fatal(err)
	}
	evil, err := platformEvil.Load([]byte("modified-binary"), enclave.Config{})
	if err != nil {
		t.Fatal(err)
	}

	goodEnd, evilEnd := transport.Pipe()
	done := make(chan error, 1)
	go func() {
		_, _, err := attestMember(context.Background(), evilEnd, authority, evil, 0)
		done <- err
	}()
	if _, err := attestLeader(context.Background(), goodEnd, authority, good, 0, 0); !errors.Is(err, attest.ErrMeasurementMismatch) {
		t.Fatalf("good side: %v, want measurement mismatch", err)
	}
	goodEnd.Close()
	<-done
}

// TestV1PeerRefusedAtAttestation: a member still running an older message
// format — v1's fixed-width counts, five sums per pair and int64 result
// lists, v2's frequency vectors in every Phase-3 request and one-pair kinds,
// or v3's summary request after the handshake and shutdown message — attests
// a different code identity, so the leader refuses it at the measurement pin,
// before any frame could be misread.
func TestV1PeerRefusedAtAttestation(t *testing.T) {
	cohort := testCohort(t, 30, 40, 3)
	authority, err := attest.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	platformL, _ := enclave.NewPlatform()
	leader, err := NewLeader("L", cohort.Case, platformL, authority)
	if err != nil {
		t.Fatal(err)
	}
	for _, identity := range []string{"gendpr-federation-enclave-v1", "gendpr-federation-enclave-v2", "gendpr-federation-enclave-v3"} {
		platformM, _ := enclave.NewPlatform()
		old, err := platformM.Load([]byte(identity), enclave.Config{})
		if err != nil {
			t.Fatal(err)
		}
		member := &Member{id: "old", shard: cohort.Case, enclave: old, authority: authority}

		leaderEnd, memberEnd := transport.Pipe()
		served := make(chan error, 1)
		go func() { served <- member.ServeContext(context.Background(), memberEnd, ServeOptions{}) }()
		_, err = leader.RunLinksContext(context.Background(), []MemberLink{{Conn: leaderEnd, Name: "old"}}, cohort.Reference, core.DefaultConfig(), core.CollusionPolicy{}, RunOptions{})
		if !errors.Is(err, attest.ErrMeasurementMismatch) || errors.Is(err, ErrProtocol) {
			t.Fatalf("%s leader: %v, want a measurement mismatch and no protocol error", identity, err)
		}
		leaderEnd.Close()
		// This stand-in pins this build's measurement itself, so it sees the
		// leader hang up rather than a mismatch; either way it served nothing.
		if err := <-served; err == nil {
			t.Fatalf("%s member finished a session", identity)
		}
	}
}

func TestMemberRejectsMalformedRequests(t *testing.T) {
	cohort := testCohort(t, 30, 40, 3)
	conn := memberSession(t, cohort.Case, nil)
	// Send a one-pair batch asking for an out-of-range SNP: an index its
	// packed width carries but the member's shard does not have.
	l := cohort.Case.L()
	width := wire.Width(int64(l) - 1)
	beyond := int64(1)<<width - 1
	if beyond < int64(l) {
		t.Fatalf("%d SNPs fill their %d-bit width; no out-of-range index fits", l, width)
	}
	req := wire.NewEncoder(16)
	req.Uint64(1)
	req.Packed([]int64{0, beyond}, width)
	reply := ask(t, conn, KindPairBatchRequest, req.Bytes())
	if reply.Kind != KindError {
		t.Fatalf("reply kind %d, want KindError", reply.Kind)
	}
	if !strings.Contains(string(reply.Payload), "out of range") {
		t.Errorf("unexpected error payload: %s", reply.Payload)
	}

	// The attested session survives the malformed request: a valid query
	// must still be answered, and only the result (memberSession's cleanup)
	// ends the loop cleanly.
	if reply := ask(t, conn, KindCountsRequest, nil); reply.Kind != KindCountsReply {
		t.Fatalf("post-error reply kind %d, want KindCountsReply", reply.Kind)
	}
}

func TestLeaderSurfacesMemberDropout(t *testing.T) {
	// A member that disappears mid-protocol (after attestation) must fail
	// the run with a clear error; the paper makes no liveness guarantees
	// beyond detection.
	cohort := testCohort(t, 40, 60, 7)
	authority, err := attest.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	platformL, _ := enclave.NewPlatform()
	leader, err := NewLeader("leader", cohort.Case, platformL, authority)
	if err != nil {
		t.Fatal(err)
	}

	leaderEnd, memberEnd := transport.Pipe()
	// Impersonate a member that completes attestation, then dies.
	go func() {
		platformM, _ := enclave.NewPlatform()
		enc, err := platformM.Load(CodeIdentity, enclave.Config{})
		if err != nil {
			t.Errorf("load: %v", err)
			return
		}
		if _, _, err := attestMember(context.Background(), memberEnd, authority, enc, 0); err != nil {
			t.Errorf("attest: %v", err)
			return
		}
		memberEnd.Close() // crash immediately after the handshake
	}()

	_, err = leader.RunLinksContext(context.Background(), []MemberLink{{Conn: leaderEnd, Name: "0"}}, cohort.Reference, core.DefaultConfig(), core.CollusionPolicy{}, RunOptions{})
	if err == nil {
		t.Fatal("leader completed despite member dropout")
	}
}

func TestLeaderRejectsUnattestedPeer(t *testing.T) {
	// A peer that never sends an attestation offer (sends junk instead)
	// must be rejected at handshake time.
	cohort := testCohort(t, 30, 40, 9)
	authority, _ := attest.NewAuthority()
	platformL, _ := enclave.NewPlatform()
	leader, err := NewLeader("leader", cohort.Case, platformL, authority)
	if err != nil {
		t.Fatal(err)
	}
	leaderEnd, peerEnd := transport.Pipe()
	go func() {
		// Consume the leader's offer, reply with garbage.
		if _, err := peerEnd.Recv(); err != nil {
			return
		}
		_ = peerEnd.Send(transport.Message{Kind: KindCountsReply, Payload: []byte("junk")})
	}()
	if _, err := leader.RunLinksContext(context.Background(), []MemberLink{{Conn: leaderEnd, Name: "0"}}, cohort.Reference, core.DefaultConfig(), core.CollusionPolicy{}, RunOptions{}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("unattested peer: %v, want protocol violation", err)
	}
}

func TestNewMemberValidation(t *testing.T) {
	authority, _ := attest.NewAuthority()
	platform, _ := enclave.NewPlatform()
	if _, err := NewMember("m", nil, platform, authority); err == nil {
		t.Error("nil shard must fail")
	}
	if _, err := NewLeader("l", nil, platform, authority); err == nil {
		t.Error("nil leader shard must fail")
	}
}

func TestRunInProcessEmpty(t *testing.T) {
	cohort := testCohort(t, 10, 10, 1)
	if _, err := RunInProcess(context.Background(), nil, cohort.Reference, core.DefaultConfig(), core.CollusionPolicy{}, RunOptions{}); !errors.Is(err, core.ErrNoMembers) {
		t.Fatalf("got %v, want ErrNoMembers", err)
	}
}

// kindCounter counts the messages crossing one leader-side channel by wire
// kind (kinds are plaintext below the AEAD layer, where injectors sit).
type kindCounter struct {
	transport.Conn
	mu    *sync.Mutex
	kinds map[uint16]int
}

func (c kindCounter) Send(m transport.Message) error {
	c.mu.Lock()
	c.kinds[m.Kind]++
	c.mu.Unlock()
	return c.Conn.Send(m)
}

func (c kindCounter) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.mu.Lock()
		c.kinds[m.Kind]++
		c.mu.Unlock()
	}
	return m, err
}

// TestFederationPhase2MessageCount pins what Phase 2 puts on the wire. On
// this cohort (the one core.TestPhase2LDUsesBatchPath pins from the inside)
// the reference panel's decision at its own size mispredicts the LD scan six
// times, but every one of those pairs is open between the panel's size and
// the federation's, so the announced closure holds the whole scan: each of
// the two remote members answers one pair batch and never a single-pair
// request.
func TestFederationPhase2MessageCount(t *testing.T) {
	cohort := testCohort(t, 150, 360, 10)
	shards, err := cohort.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	var mu sync.Mutex
	kinds := map[uint16]int{}
	count := func(_ int, conn transport.Conn) transport.Conn {
		return kindCounter{Conn: conn, mu: &mu, kinds: kinds}
	}
	res, err := runElection(context.Background(), shards, cohort.Reference, cfg, core.CollusionPolicy{}, RunOptions{}, pipeChannel, chaosHooks{inject: count})
	if err != nil {
		t.Fatal(err)
	}
	central, err := core.RunCentralized(cohort, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Selection.Equal(central.Selection) {
		t.Fatalf("federated %v != centralized %v", res.Report.Selection, central.Selection)
	}
	for kind, want := range map[uint16]int{
		KindPairBatchRequest: 2,
		KindPairBatchReply:   2,
		KindPairRequest:      0,
		KindPairReply:        0,
		KindCountsRequest:    0, // named by the leader's offer instead
		KindCountsReply:      2,
		KindLRRequest:        2,
		KindShutdown:         0, // the result ends each session
	} {
		if kinds[kind] != want {
			t.Errorf("kind %d: %d message(s), want %d", kind, kinds[kind], want)
		}
	}
	if got := res.Traffic.TotalMessages; got != 16 {
		t.Errorf("transport.Meter counted %d messages in all, want 16", got)
	}
}

// TestFederationConservativeMessageCount pins what a G=5 conservative
// assessment (31 combinations) puts on the wire under a fixed leader, on one
// leader worker and on four. Phase 2's collusion chains run concurrently
// only against a frozen pair table and every chain that needs a fetch is
// re-run in plan order, so every pair request meets the state an in-order
// walk would; Phase 3's chains run concurrently but only read the patterns
// fetched once for the full membership — the count cannot depend on the
// schedule. The concurrent chains share the member connections, so this also
// runs the remote providers' serialization under the race detector.
func TestFederationConservativeMessageCount(t *testing.T) {
	cohort := testCohort(t, 1500, 100, 3)
	shards, err := cohort.Partition(5)
	if err != nil {
		t.Fatal(err)
	}
	// The leader's own shard never touches the wire and each combination's
	// LD detours go to its own members only, so the count depends on which
	// member leads: fix it rather than elect it.
	authority, err := attest.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	leader, err := NewLeader("gdo-0", shards[0], platform, authority)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	policy := core.CollusionPolicy{Conservative: true}
	base, err := core.RunDistributed(shards, cohort.Reference, cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		var mu sync.Mutex
		kinds := map[uint16]int{}
		count := func(_ int, conn transport.Conn) transport.Conn {
			return kindCounter{Conn: conn, mu: &mu, kinds: kinds}
		}
		prev := runtime.GOMAXPROCS(procs)
		res, err := runWithLeader(nil, leader, authority, 0, shards, cohort.Reference, cfg, policy, RunOptions{}, pipeChannel, chaosHooks{inject: count})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if !res.Report.Selection.Equal(base.Selection) {
			t.Errorf("GOMAXPROCS %d: federated %v != in-memory %v", procs, res.Report.Selection, base.Selection)
		}
		for kind, want := range map[uint16]int{
			KindAttestOffer:      8, // four remote members, both directions
			KindCountsRequest:    0, // named by the leader's offer instead
			KindCountsReply:      4,
			KindPairRequest:      0,
			KindPairReply:        0,
			KindPairBatchRequest: 46, // the small panel's closure still misses where pooled statistics leave its band
			KindPairBatchReply:   46,
			KindLRRequest:        4,
			KindLRReply:          4,
			KindResult:           4,
			KindShutdown:         0, // the result ends each session
		} {
			if kinds[kind] != want {
				t.Errorf("GOMAXPROCS %d: kind %d: %d message(s), want %d", procs, kind, kinds[kind], want)
			}
		}
		if got := res.Traffic.TotalMessages; got != 116 {
			t.Errorf("GOMAXPROCS %d: transport.Meter counted %d messages in all, want 116", procs, got)
		}
	}
}

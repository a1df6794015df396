package main

// sut.go is the benchmark's only adapter to the system under test: every
// import of gendpr/internal/... and every call into the repository is in this
// file, so an API change in the repository has one place to re-point. It
// assembles the federation the way cmd/gendpr-leader and cmd/gendpr-node
// -serves 0 deploy it (long-lived member nodes on loopback TCP listeners, a
// fixed leader gdo-0, a fresh dial and mutual attestation per run, AES-GCM on
// every message, FileStore checkpoints with fsync at every phase boundary),
// wraps the seams the code already exposes to take spans from outside, and
// holds the direct timed calls the probes make.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gendpr/internal/checkpoint"
	"gendpr/internal/combin"
	"gendpr/internal/core"
	"gendpr/internal/enclave"
	"gendpr/internal/enclave/attest"
	"gendpr/internal/federation"
	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
	"gendpr/internal/seal"
	"gendpr/internal/service"
	"gendpr/internal/stats"
	"gendpr/internal/transport"
	"gendpr/internal/wire"
)

// requestTimeout bounds one assessment so a wedged run fails the benchmark
// instead of hanging it; it is far above any latency the workloads see.
const requestTimeout = 90 * time.Second

// replayShapes is the request mix of scripts/load.sh: MAFCutoff 0.02–0.05 × F 0/1.
const replayShapes = 8

// outcome is what one assessment looked like to its client.
type outcome struct {
	err         error
	shed        bool // refused by admission control (*service.OverloadError)
	match       bool // selection equals the oracle's
	reused      bool
	coalesced   bool
	wait, total time.Duration // Response.Wait and .Total: admission to slot claim, to completion (service only)
	peakEnclave int64
	run         *runTrace // what the wrappers saw, nil when the run was not traced
}

// memberNode is one long-lived GDO process stand-in: a member, its listener
// and the run the member-side timing decorator currently reports to.
type memberNode struct {
	member   *federation.Member
	listener *transport.Listener
	current  atomic.Pointer[runTrace]
}

// system is one assembled deployment: cohort, member nodes, leader, and for
// the service workloads the assessment server in front.
type system struct {
	p      params
	cohort *genome.Cohort
	shards []*genome.Matrix

	leader    *federation.Leader
	nodes     []*memberNode
	addrs     []string
	meters    []*transport.Meter
	tcpDial   service.LinkDialer
	stopNodes context.CancelFunc
	nodesDone sync.WaitGroup
	sessionEr atomic.Int64

	store   *checkpoint.FileStore
	ckptDir string
	server  *service.Server

	cfg      core.Config
	policy   core.CollusionPolicy
	requests []service.Request // replay shapes; one entry otherwise
	oracle   []core.Selection  // expected selection per request shape

	tracing  bool
	runs     atomic.Int64 // backend runs begun; with tracing on, odd ones are traced
	byReport sync.Map     // *core.Report → *runTrace, joins a Response to its run
	captured atomic.Pointer[checkpoint.State]

	generateS, partitionS float64
}

// newSystem generates the cohort from the seed and assembles the deployment.
// Everything the program under test receives is the generated cohort.
func newSystem(p params, seed int64, workDir string, tracing bool) (*system, error) {
	s := &system{p: p, tracing: tracing, cfg: core.DefaultConfig()}
	if p.Conservative {
		s.policy = core.CollusionPolicy{Conservative: true}
	}

	start := time.Now()
	cohort, err := genome.Generate(genome.DefaultGeneratorConfig(p.SNPs, p.Genomes, p.CohortSeed))
	if err != nil {
		return nil, err
	}
	s.generateS = time.Since(start).Seconds()
	// The population is part of the workload; the run's seed draws which of
	// its individuals each GDO holds, by rotating the case genomes before
	// they are partitioned.
	offset := rand.New(rand.NewSource(seed)).Intn(cohort.Case.N())
	if cohort.Case, err = genome.Concat(cohort.Case.SelectRows(offset, cohort.Case.N()), cohort.Case.SelectRows(0, offset)); err != nil {
		return nil, err
	}
	start = time.Now()
	shards, err := cohort.Partition(p.G)
	if err != nil {
		return nil, err
	}
	s.partitionS = time.Since(start).Seconds()
	s.cohort, s.shards = cohort, shards

	authority, err := attest.NewAuthority()
	if err != nil {
		return nil, err
	}
	platform, err := enclave.NewPlatform()
	if err != nil {
		return nil, err
	}
	if s.leader, err = federation.NewLeader("gdo-0", shards[0], platform, authority); err != nil {
		return nil, err
	}

	ctx, stop := context.WithCancel(context.Background())
	s.stopNodes = stop
	for i, shard := range shards[1:] {
		if err := s.startNode(ctx, i, shard, authority); err != nil {
			s.close()
			return nil, err
		}
	}
	s.tcpDial = service.NewTCPDialer(s.addrs, 0)

	if s.ckptDir, err = os.MkdirTemp(workDir, "ckpt-"); err != nil {
		s.close()
		return nil, err
	}
	if s.store, err = checkpoint.NewFileStore(s.ckptDir); err != nil {
		s.close()
		return nil, err
	}

	s.requests = []service.Request{{Config: s.cfg, Policy: s.policy}}
	if p.Mode == modeReplay {
		s.requests = make([]service.Request, replayShapes)
		for shape := range s.requests {
			cfg := core.DefaultConfig()
			cfg.MAFCutoff = 0.02 + float64(shape%4)*0.01
			s.requests[shape] = service.Request{Config: cfg, Policy: core.CollusionPolicy{F: shape % 2}}
		}
	}
	if p.Service {
		if err := s.startServer(); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// startNode brings up one member node: enclave, listener, and the accept loop
// of cmd/gendpr-node -serves 0 (one serving goroutine per leader connection).
func (s *system) startNode(ctx context.Context, link int, shard *genome.Matrix, authority *attest.Authority) error {
	platform, err := enclave.NewPlatform()
	if err != nil {
		return err
	}
	member, err := federation.NewMember(fmt.Sprintf("gdo-%d", link+1), shard, platform, authority)
	if err != nil {
		return err
	}
	listener, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	node := &memberNode{member: member, listener: listener}
	if s.tracing {
		member.WrapProvider(func(inner core.Provider) core.Provider {
			return &timedProvider{inner: inner, link: link, current: &node.current}
		})
	}
	s.nodes = append(s.nodes, node)
	s.addrs = append(s.addrs, listener.Addr())
	s.meters = append(s.meters, &transport.Meter{})

	s.nodesDone.Add(1)
	go s.serveNode(ctx, node)
	return nil
}

// serveNode is the node's accept loop; it returns once the listener is
// closed and every session it started has ended.
func (s *system) serveNode(ctx context.Context, node *memberNode) {
	defer s.nodesDone.Done()
	var sessions sync.WaitGroup
	defer sessions.Wait()
	for {
		conn, err := node.listener.Accept()
		if err != nil {
			return // listener closed: the shutdown path
		}
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			if err := node.member.ServeContext(ctx, conn, federation.ServeOptions{}); err != nil && ctx.Err() == nil {
				s.sessionEr.Add(1)
			}
			_ = conn.Close()
		}()
	}
}

// startServer puts the assessment service in front of the federation with
// the daemon's configuration: one federation slot, a queue of 16, the shared
// FileStore.
func (s *system) startServer() error {
	names := append([]string(nil), s.addrs...)
	fb := &service.FederationBackend{
		Leader:      s.leader,
		Dial:        func() ([]federation.MemberLink, func(), error) { return s.dial(nil) },
		Reference:   s.cohort.Reference,
		MemberNames: names,
	}
	var backend service.Backend = fb
	if s.tracing {
		backend = &tracedBackend{sys: s, inner: fb}
	}
	srv, err := service.NewServer(service.Config{
		Backend:     backend,
		Checkpoints: s.store,
		Slots:       1,
		QueueDepth:  16,
		DrainGrace:  30 * time.Second,
	})
	if err != nil {
		return err
	}
	s.server = srv
	return nil
}

// close tears the deployment down: listeners closed, member sessions joined,
// checkpoint directory removed. The server, if any, has been drained before.
func (s *system) close() {
	s.stopNodes()
	for _, n := range s.nodes {
		_ = n.listener.Close()
	}
	s.nodesDone.Wait()
	if s.ckptDir != "" {
		_ = os.RemoveAll(s.ckptDir)
	}
}

// computeOracle runs the paper's reference on the pooled cohort: the
// centralized SecureGenome pipeline for requests without collusion tolerance
// (GenDPR's selection must equal it, Table 4), and the in-process distributed
// run for collusion policies, which must additionally evaluate the expected
// number of combinations and keep L' inside the base run's L'.
func (s *system) computeOracle() error {
	s.oracle = make([]core.Selection, len(s.requests))
	base := make(map[float64]core.Selection)
	for i, req := range s.requests {
		if _, ok := base[req.Config.MAFCutoff]; !ok {
			rep, err := core.RunCentralized(s.cohort, req.Config)
			if err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			base[req.Config.MAFCutoff] = rep.Selection
		}
		s.oracle[i] = base[req.Config.MAFCutoff]
		if req.Policy == (core.CollusionPolicy{}) {
			continue
		}
		rep, err := core.RunDistributed(s.shards, s.cohort.Reference, req.Config, req.Policy)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		if want := s.p.expectedCombinations(req.Policy.F); rep.Combinations != want {
			return fmt.Errorf("oracle: %d combinations evaluated, want %d", rep.Combinations, want)
		}
		// Every phase intersects over all evaluated subsets, the full
		// membership included, so L' can only shrink. The later stages are
		// not monotone: LD pruning and LR admission are greedy over their
		// input set, and a smaller L' can keep a SNP the base run pruned.
		if !subset(rep.Selection.AfterMAF, base[req.Config.MAFCutoff].AfterMAF) {
			return errors.New("oracle: collusion-tolerant L' is not a subset of the base L'")
		}
		s.oracle[i] = rep.Selection
	}
	return nil
}

// subset reports whether every element of the sorted list a is in the sorted list b.
func subset(a, b []int) bool {
	return len(core.IntersectSorted(a, b)) == len(a)
}

// safeDigest is the SHA-256 of the oracle's L_safe lists, the value
// golden.json pins so bit-identity survives a change that breaks oracle and
// protocol together.
func (s *system) safeDigest() string {
	h := sha256.New()
	for _, sel := range s.oracle {
		parts := make([]string, len(sel.Safe))
		for i, l := range sel.Safe {
			parts[i] = strconv.Itoa(l)
		}
		h.Write([]byte(strings.Join(parts, ",") + ";"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// corruptOracle makes every expected selection wrong; the self-test uses it
// to prove a mismatch is counted as a failure.
func (s *system) corruptOracle() {
	for i := range s.oracle {
		s.oracle[i].Safe = append([]int{-1}, s.oracle[i].Safe...)
	}
}

// selectionSizes describes the oracle's funnel for the run record.
func (s *system) selectionSizes() []string {
	out := make([]string, len(s.oracle))
	for i, sel := range s.oracle {
		out[i] = sel.String()
	}
	return out
}

// wireTotals sums what crossed every member link so far: ciphertext bytes and
// protocol messages, both directions (transport.Meter, §7.1).
func (s *system) wireTotals() (bytes, msgs int64) {
	for _, m := range s.meters {
		bytes += m.TotalBytes()
		msgs += m.SentMessages() + m.RecvMessages()
	}
	return bytes, msgs
}

// --- running one assessment ---

// beginRun opens the trace of one backend run, or returns nil when this run
// is not traced: with tracing on, runs alternate so the same section yields
// both the traced numbers and the untraced ones they are compared with.
func (s *system) beginRun() *runTrace {
	if !s.tracing || s.runs.Add(1)%2 == 0 {
		return nil
	}
	run := newRunTrace(len(s.nodes))
	for _, n := range s.nodes {
		n.current.Store(run)
	}
	return run
}

func (s *system) endRun(run *runTrace, report *core.Report) {
	if run == nil {
		return
	}
	for _, n := range s.nodes {
		n.current.Store(nil)
	}
	if report != nil {
		t := report.Timings
		run.phase = [4]time.Duration{t.DataAggregation, t.Indexing, t.LD, t.LRTest}
		run.combinations = report.Combinations
	}
}

// dial opens this run's member links and puts the program's own byte meter
// on each. The untraced pass dials with the daemon's service.NewTCPDialer; the
// traced pass dials the same way one level down, on net.Conn, so that the
// frames can be watched.
func (s *system) dial(run *runTrace) ([]federation.MemberLink, func(), error) {
	start := time.Now()
	open := s.tcpDial
	if s.tracing {
		open = func() ([]federation.MemberLink, func(), error) { return s.framedDial(run) }
	}
	links, cleanup, err := open()
	if err != nil {
		return nil, nil, err
	}
	if run != nil {
		run.add(catDial, -1, start, time.Now(), 0)
	}
	for i := range links {
		meter, redial := s.meters[i], links[i].Redial
		links[i].Conn = transport.NewMetered(links[i].Conn, meter)
		links[i].Redial = func() (transport.Conn, error) {
			c, err := redial()
			if err != nil {
				return nil, err
			}
			return transport.NewMetered(c, meter), nil
		}
	}
	return links, cleanup, nil
}

// framedDial is service.NewTCPDialer with a frame watcher between the socket
// and the frame codec of every link of a traced run.
func (s *system) framedDial(run *runTrace) ([]federation.MemberLink, func(), error) {
	links := make([]federation.MemberLink, 0, len(s.addrs))
	conns := make([]transport.Conn, 0, len(s.addrs))
	cleanup := func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}
	for i, addr := range s.addrs {
		open := func() (transport.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, transport.DefaultDialTimeout)
			if err != nil {
				return nil, err
			}
			if run != nil {
				c = &framedConn{Conn: c, run: run, link: i}
			}
			return transport.NewNetConn(c), nil
		}
		conn, err := open()
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		conns = append(conns, conn)
		links = append(links, federation.MemberLink{Conn: conn, Name: addr, Redial: open})
	}
	return links, cleanup, nil
}

func (s *system) storeFor(ck checkpoint.Store, run *runTrace) checkpoint.Store {
	if run == nil || ck == nil {
		return ck
	}
	return &tracedStore{inner: ck, run: run, captured: &s.captured}
}

// assessDirect is one cold assessment without the service: dial, attest,
// three phases checkpointed into a fresh FileStore namespace, result
// broadcast — what one gendpr-leader invocation does.
func (s *system) assessDirect(i int) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	run := s.beginRun()
	links, cleanup, err := s.dial(run)
	if err != nil {
		s.endRun(run, nil)
		return outcome{err: err}
	}
	opts := federation.RunOptions{Checkpoints: s.storeFor(s.store.Namespace(fmt.Sprintf("run-%d", i)), run)}
	start := time.Now()
	report, err := s.leader.RunLinksContext(ctx, links, s.cohort.Reference, s.cfg, s.policy, opts)
	cleanup() // inside the run span, where FederationBackend.Run has it too
	if run != nil {
		run.add(catRun, -1, start, time.Now(), 0)
	}
	s.endRun(run, report)
	if err != nil {
		return outcome{err: err}
	}
	return outcome{
		match:       report.Selection.Equal(s.oracle[0]),
		peakEnclave: report.PeakEnclaveBytes,
		run:         run,
	}
}

// assessService submits request i to the assessment server. In replay mode i
// picks one of the fixed shapes; in cold mode every request gets its own
// fingerprint by moving the MAF cutoff down by a step far below the
// 1/(2N) granularity of a frequency, so the selection stays the oracle's and
// nothing is coalesced or replayed.
func (s *system) assessService(i int) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	shape := i % len(s.requests)
	req := s.requests[shape]
	if s.p.Mode != modeReplay {
		req.Config.MAFCutoff -= float64(i+1) * 1e-9
	}
	resp, err := s.server.Assess(ctx, req)
	if err != nil {
		var overload *service.OverloadError
		return outcome{err: err, shed: errors.As(err, &overload)}
	}
	o := outcome{
		match:       resp.Report.Selection.Equal(s.oracle[shape]),
		reused:      resp.Reused,
		coalesced:   resp.Coalesced,
		wait:        resp.Wait,
		total:       resp.Total,
		peakEnclave: resp.Report.PeakEnclaveBytes,
	}
	if run, ok := s.byReport.Load(resp.Report); ok {
		o.run = run.(*runTrace)
	}
	return o
}

func (s *system) assess(i int) outcome {
	if s.p.Service {
		return s.assessService(i)
	}
	return s.assessDirect(i)
}

// drainServer shuts the service down and checks the invariants
// cmd/gendpr-load checks: the admission ledger balances and nothing is left
// in flight or queued.
func (s *system) drainServer() error {
	if s.server == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if err := s.server.Drain(ctx); err != nil {
		return err
	}
	st := s.server.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		return fmt.Errorf("leak: %d runs in flight, %d requests queued after drain", st.InFlight, st.Queued)
	}
	if off := st.Admitted - st.Completed - st.Failed - st.ShedAfterAdmission; off != 0 {
		return fmt.Errorf("ledger does not balance: %d admitted requests unaccounted for", off)
	}
	return nil
}

// --- wrappers: spans taken from outside, at seams the code already exposes ---

// tracedBackend is the service.Backend seam: it times the backend run and
// hands the run's trace to the dialer and the checkpoint store it passes on.
type tracedBackend struct {
	sys   *system
	inner *service.FederationBackend
}

func (b *tracedBackend) Fingerprint(req service.Request) []byte { return b.inner.Fingerprint(req) }

func (b *tracedBackend) Run(ctx context.Context, req service.Request, ck checkpoint.Store) (*core.Report, error) {
	run := b.sys.beginRun()
	fb := *b.inner
	fb.Dial = func() ([]federation.MemberLink, func(), error) { return b.sys.dial(run) }
	start := time.Now()
	report, err := fb.Run(ctx, req, b.sys.storeFor(ck, run))
	if run != nil {
		run.add(catRun, -1, start, time.Now(), 0)
	}
	b.sys.endRun(run, report)
	if run != nil && report != nil {
		b.sys.byReport.Store(report, run)
	}
	return report, err
}

// classOf groups message kinds; Message.Kind stays plaintext under SecureConn.
func classOf(kind uint16) msgClass {
	switch kind {
	case federation.KindAttestOffer:
		return classAttest
	case federation.KindCountsRequest, federation.KindCountsReply:
		return classCounts
	case federation.KindPairRequest, federation.KindPairReply,
		federation.KindPairBatchRequest, federation.KindPairBatchReply:
		return classPairs
	case federation.KindLRRequest, federation.KindLRReply:
		return classLR
	case federation.KindResult, federation.KindShutdown:
		return classResult
	default:
		return classOther
	}
}

// frameParser follows transport's frame codec over a byte stream: a 4-byte
// big-endian payload length, a 2-byte kind, the payload.
type frameParser struct {
	header [6]byte
	have   int // header bytes seen of the current frame
	left   int // payload bytes still to come
}

// idle reports whether the stream is at a frame boundary.
func (p *frameParser) idle() bool { return p.have == 0 && p.left == 0 }

// feed consumes b and calls done for every frame that ends in it.
func (p *frameParser) feed(b []byte, done func(kind uint16, size int)) {
	for len(b) > 0 {
		if p.have < len(p.header) {
			n := copy(p.header[p.have:], b)
			p.have += n
			b = b[n:]
			if p.have < len(p.header) {
				return
			}
			p.left = int(binary.BigEndian.Uint32(p.header[0:4]))
		}
		n := min(p.left, len(b))
		p.left -= n
		b = b[n:]
		if p.left > 0 {
			return
		}
		size := int(binary.BigEndian.Uint32(p.header[0:4]))
		p.have = 0
		done(binary.BigEndian.Uint16(p.header[4:6]), size)
	}
}

// framedConn is the seam on the leader end of one member link: a net.Conn
// handed to transport.NewNetConn, below framing, attestation and encryption.
// It sees ciphertext sizes and the plaintext kind of every frame. The leader
// keeps one exchange outstanding per connection, so the first byte of a
// request going out and the last byte of the next frame coming in bracket the
// time the leader was blocked on the member; the leader's own seal and open
// lie outside it.
type framedConn struct {
	net.Conn
	run  *runTrace
	link int

	out, in      frameParser
	outStart     time.Time // when the first byte of the latest outgoing frame was written
	pending      bool      // a request is out and its reply is not in yet
	pendingClass msgClass
}

func (c *framedConn) Write(b []byte) (int, error) {
	if c.out.idle() {
		c.outStart = time.Now()
	}
	n, err := c.Conn.Write(b)
	c.out.feed(b[:n], func(kind uint16, size int) {
		class := classOf(kind)
		c.run.count(class, size)
		if class == classResult || class == classOther {
			c.run.add(rpcCategory[class], c.link, c.outStart, time.Now(), int64(size))
			return
		}
		c.pending, c.pendingClass = true, class
	})
	return n, err
}

func (c *framedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.in.feed(b[:n], func(kind uint16, size int) {
		c.run.count(classOf(kind), size)
		if c.pending {
			c.pending = false
			c.run.add(rpcCategory[c.pendingClass], c.link, c.outStart, time.Now(), int64(size))
			c.run.trip(c.link)
		}
	})
	return n, err
}

// tracedStore is the checkpoint.Store seam. It also remembers the last State
// that passed through, the real input of the codec probes.
type tracedStore struct {
	inner    checkpoint.Store
	run      *runTrace
	captured *atomic.Pointer[checkpoint.State]
}

func (t *tracedStore) Save(st *checkpoint.State) error {
	start := time.Now()
	err := t.inner.Save(st)
	t.run.add(catCkSave, -1, start, time.Now(), 0)
	t.captured.Store(st)
	return err
}

func (t *tracedStore) Load() (*checkpoint.State, error) {
	start := time.Now()
	st, err := t.inner.Load()
	t.run.add(catCkLoad, -1, start, time.Now(), 0)
	if err == nil {
		t.captured.Store(st)
	}
	return st, err
}

func (t *tracedStore) Clear() error { return t.inner.Clear() }

// timedProvider is the core.Provider seam on the member side
// (Member.WrapProvider): busy time per call kind, reported to the run the
// leader is currently driving. It forwards the optional batch and pattern
// interfaces so the member serves exactly what it serves unwrapped.
type timedProvider struct {
	inner   core.Provider
	link    int
	current *atomic.Pointer[runTrace]
}

func (p *timedProvider) record(c category, start time.Time) {
	if run := p.current.Load(); run != nil {
		run.add(c, p.link, start, time.Now(), 0)
	}
}

func (p *timedProvider) Counts() ([]int64, error) {
	defer p.record(catMemCounts, time.Now())
	return p.inner.Counts()
}

func (p *timedProvider) CaseN() (int64, error) { return p.inner.CaseN() }

func (p *timedProvider) PairStats(a, b int) (genome.PairStats, error) {
	defer p.record(catMemPairs, time.Now())
	return p.inner.PairStats(a, b)
}

func (p *timedProvider) PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error) {
	defer p.record(catMemPairs, time.Now())
	bp, ok := p.inner.(core.BatchPairProvider)
	if !ok {
		return nil, errors.New("benchmark: member provider cannot serve pair batches")
	}
	return bp.PairStatsBatch(pairs)
}

func (p *timedProvider) LRMatrix(cols []int, caseFreq, refFreq []float64) (*lrtest.BitMatrix, error) {
	defer p.record(catMemMatrix, time.Now())
	return p.inner.LRMatrix(cols, caseFreq, refFreq)
}

func (p *timedProvider) LRPattern(cols []int) (*lrtest.BitMatrix, error) {
	defer p.record(catMemPattern, time.Now())
	pp, ok := p.inner.(core.PatternProvider)
	if !ok {
		return nil, errors.New("benchmark: member provider cannot serve genotype patterns")
	}
	return pp.LRPattern(cols)
}

// --- probes: direct timed calls into each package's exported functions ---

// probes runs once per workload in the traced pass, on one goroutine, on
// inputs taken from the workload itself: a member shard at the workload's
// N × L, the column sets the run retained, a State a run really saved.
func (s *system) probes(set func(name string, v float64)) error {
	budget := time.Duration(s.p.ProbeMS) * time.Millisecond // per probe
	shard := s.shards[1]
	sel := s.oracle[0]
	retained, cols := sel.AfterMAF, sel.AfterLD
	if len(retained) < 2 || len(cols) == 0 {
		return errors.New("probes: the workload retained too few SNPs to probe with")
	}

	// genome: what a member does for Phase 2 (transpose, pair counts) and
	// Phase 3 (column selection).
	set("genome.select_columns_s", timeCalls(budget, func() { _ = shard.SelectColumns(cols) }))
	set("genome.transpose_s", timeCalls(budget, func() { _ = shard.Transpose() }))
	view := shard.Transpose()
	pairs := len(retained) - 1
	set("genome.pair_count_ns", 1e9/float64(pairs)*timeCalls(budget, func() {
		for i := 0; i < pairs; i++ {
			_ = view.PairCount(retained[i], retained[i+1])
		}
	}))

	// stats and combin: the leader's per-pair and per-combination steps.
	pairStats := view.PairStats(retained[0], retained[1])
	var probeErr error
	set("stats.ld_pvalue_ns", 1e9*timeCalls(budget, func() {
		if _, err := stats.LDPValue(pairStats); err != nil {
			probeErr = err
		}
	}))
	steps := 0
	set("combin.step_ns", 1e9*timeCalls(budget, func() {
		steps = 0
		for k := 1; k < 5; k++ {
			if err := combin.RevolvingDoor(5, k, func([]int, int, int) error { steps++; return nil }); err != nil {
				probeErr = err
			}
		}
	})/30)
	if probeErr == nil && steps != 30 {
		probeErr = fmt.Errorf("probes: revolving door made %d steps, want 30", steps)
	}

	// lrtest: member-side build, leader-side merge, reskin and selection, on
	// the post-LD column set with the pooled frequencies of this cohort.
	caseFreq := core.Frequencies(s.cohort.Case.AlleleCounts(), int64(s.cohort.Case.N()), cols)
	refFreq := core.Frequencies(s.cohort.Reference.AlleleCounts(), int64(s.cohort.Reference.N()), cols)
	ratios, err := lrtest.NewLogRatios(caseFreq, refFreq)
	if err != nil {
		return err
	}
	selected := shard.SelectColumns(cols)
	set("lrtest.buildbit_s", timeCalls(budget, func() {
		if _, err := lrtest.BuildBit(selected, ratios); err != nil {
			probeErr = err
		}
	}))
	parts := make([]*lrtest.BitMatrix, len(s.shards))
	for i, sh := range s.shards {
		if parts[i], err = lrtest.BuildBit(sh.SelectColumns(cols), ratios); err != nil {
			return err
		}
	}
	set("lrtest.merge_s", timeCalls(budget, func() {
		if _, err := lrtest.MergeBits(parts...); err != nil {
			probeErr = err
		}
	}))
	caseLR, err := lrtest.MergeBits(parts...)
	if err != nil {
		return err
	}
	refLR, err := lrtest.BuildBit(s.cohort.Reference.SelectColumns(cols), ratios)
	if err != nil {
		return err
	}
	set("lrtest.reskin_s", timeCalls(budget, func() {
		if _, err := caseLR.Reskin(ratios); err != nil {
			probeErr = err
		}
	}))
	selector := lrtest.NewSelector()
	order := lrtest.DiscriminabilityOrderBit(caseLR, refLR)
	set("lrtest.select_s", timeCalls(budget, func() {
		if _, err := selector.SelectSafeBitWithOrder(caseLR, refLR, s.cfg.LR, order); err != nil {
			probeErr = err
		}
	}))
	pattern, err := lrtest.BuildBitPattern(selected)
	if err != nil {
		return err
	}
	set("lrtest.encode_wire_s", timeCalls(budget, func() { _ = pattern.EncodePatternWire() }))
	patternWire := pattern.EncodePatternWire()
	set("lrtest.decode_wire_s", timeCalls(budget, func() {
		if _, err := lrtest.DecodePatternWire(patternWire); err != nil {
			probeErr = err
		}
	}))

	// wire: the counts vector of Phase 1 at the workload's L.
	counts := shard.AlleleCounts()
	megabytes := float64(8*len(counts)) / 1e6
	set("wire.encode_MBps", megabytes/timeCalls(budget, func() {
		e := wire.NewEncoder(16 + 8*len(counts))
		e.Int64s(counts)
	}))
	enc := wire.NewEncoder(16 + 8*len(counts))
	enc.Int64s(counts)
	set("wire.decode_MBps", megabytes/timeCalls(budget, func() {
		d := wire.NewDecoder(enc.Bytes())
		_ = d.Int64s()
		if err := d.Finish(); err != nil {
			probeErr = err
		}
	}))

	// checkpoint: the codec on a State a run of this workload really saved.
	if st := s.captured.Load(); st != nil {
		set("checkpoint.encode_s", timeCalls(budget, func() { _ = checkpoint.Encode(st) }))
		encoded := checkpoint.Encode(st)
		set("checkpoint.save_bytes", float64(len(encoded)))
		set("checkpoint.decode_s", timeCalls(budget, func() {
			if _, err := checkpoint.Decode(encoded); err != nil {
				probeErr = err
			}
		}))
	}

	if err := probeAttest(budget, set); err != nil {
		return err
	}
	if err := probeTransport(budget, set); err != nil {
		return err
	}
	if err := probeAdmission(budget, set); err != nil {
		return err
	}
	return probeErr
}

// probeAttest times the CPU of one mutual attestation without a network:
// two handshakes prepared, two completed.
func probeAttest(budget time.Duration, set func(string, float64)) error {
	authority, err := attest.NewAuthority()
	if err != nil {
		return err
	}
	var enclaves [2]*enclave.Enclave
	for i := range enclaves {
		platform, err := enclave.NewPlatform()
		if err != nil {
			return err
		}
		if enclaves[i], err = platform.Load(federation.CodeIdentity, enclave.Config{}); err != nil {
			return err
		}
	}
	var probeErr error
	set("attest.handshake_cpu_s", timeCalls(budget, func() {
		a, errA := attest.NewHandshake(authority, enclaves[0])
		b, errB := attest.NewHandshake(authority, enclaves[1])
		if errA != nil || errB != nil {
			probeErr = errors.Join(errA, errB)
			return
		}
		_, errA = a.Complete(authority.PublicKey(), b.Offer(), federation.ExpectedMeasurement())
		_, errB = b.Complete(authority.PublicKey(), a.Offer(), federation.ExpectedMeasurement())
		if errA != nil || errB != nil {
			probeErr = errors.Join(errA, errB)
		}
	}))
	return probeErr
}

// probeTransport times AES-GCM seal+open through SecureConn over an
// in-memory pipe at 64 KiB, and a 64-byte frame round trip over loopback TCP.
func probeTransport(budget time.Duration, set func(string, float64)) error {
	key, err := seal.NewKey()
	if err != nil {
		return err
	}
	a, b := transport.Pipe()
	sender, receiver := transport.NewSecure(a, key), transport.NewSecure(b, key)
	payload := make([]byte, 64<<10)
	var probeErr error
	set("transport.seal_open_MBps", float64(len(payload))/1e6/timeCalls(budget, func() {
		if err := sender.Send(transport.Message{Kind: federation.KindLRReply, Payload: payload}); err != nil {
			probeErr = err
			return
		}
		if _, err := receiver.Recv(); err != nil {
			probeErr = err
		}
	}))
	_ = a.Close()
	if probeErr != nil {
		return probeErr
	}

	listener, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer listener.Close()
	ping := transport.Message{Kind: federation.KindPairRequest, Payload: make([]byte, 64)}
	echoed := make(chan error, 1)
	go func() {
		conn, err := listener.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		for {
			if _, err := conn.Recv(); err != nil {
				echoed <- nil // the client closed: the probe is over
				return
			}
			if err := conn.Send(ping); err != nil {
				echoed <- err
				return
			}
		}
	}()
	client, err := transport.DialTimeout(listener.Addr(), 0)
	if err != nil {
		return err
	}
	set("transport.tcp_rtt_s", timeCalls(budget, func() {
		if err := client.Send(ping); err != nil {
			probeErr = err
			return
		}
		if _, err := client.Recv(); err != nil {
			probeErr = err
		}
	}))
	_ = client.Close()
	if err := <-echoed; err != nil {
		return err
	}
	return probeErr
}

// nopBackend answers at once, leaving only the service's own admission,
// queue hand-off and ledger in the measured call.
type nopBackend struct{ report core.Report }

func (b *nopBackend) Fingerprint(service.Request) []byte { return []byte("nop") }

func (b *nopBackend) Run(context.Context, service.Request, checkpoint.Store) (*core.Report, error) {
	return &b.report, nil
}

func probeAdmission(budget time.Duration, set func(string, float64)) error {
	srv, err := service.NewServer(service.Config{Backend: &nopBackend{}, Slots: 1, QueueDepth: 16})
	if err != nil {
		return err
	}
	ctx := context.Background()
	var probeErr error
	set("service.admit_ns", 1e9*timeCalls(budget, func() {
		if _, err := srv.Assess(ctx, service.Request{}); err != nil {
			probeErr = err
		}
	}))
	if err := srv.Drain(ctx); err != nil {
		return err
	}
	return probeErr
}

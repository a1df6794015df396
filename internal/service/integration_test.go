package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gendpr/internal/checkpoint"
	"gendpr/internal/core"
	"gendpr/internal/federation"
	"gendpr/internal/genome"
)

// testBackend builds a small real federation: one leader and two member nodes
// over in-memory pipes, sharing a generated cohort.
func testBackend(t testing.TB) *FederationBackend {
	t.Helper()
	cohort, err := genome.Generate(genome.DefaultGeneratorConfig(48, 60, 7))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := cohort.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewInProcessBackend(shards, cohort.Reference, federation.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return backend
}

func TestCheckpointReuseAcrossRequests(t *testing.T) {
	backend := testBackend(t)
	store := checkpoint.NewMemStore()
	log := &eventLog{}
	s, err := NewServer(Config{Backend: backend, Checkpoints: store, Slots: 1, OnEvent: log.sink})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Drain(context.Background()) }()

	req := Request{Tenant: "t", Config: core.DefaultConfig(), Policy: core.CollusionPolicy{F: 1}}
	first, err := s.Assess(context.Background(), req)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if first.Reused {
		t.Fatal("first run claims checkpoint reuse with an empty store")
	}

	// The identical request must resume from the retained final snapshot and
	// skip every protocol phase.
	second, err := s.Assess(context.Background(), req)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !second.Reused || !second.Report.Resumed {
		t.Error("identical request did not reuse the retained checkpoint")
	}
	if got, want := second.Report.Selection, first.Report.Selection; got.Power != want.Power {
		t.Errorf("resumed selection power = %v, want %v", got.Power, want.Power)
	}

	// A different configuration is a different fingerprint: no reuse, and the
	// first run's namespace is untouched.
	other := req
	other.Config.MAFCutoff = 0.10
	third, err := s.Assess(context.Background(), other)
	if err != nil {
		t.Fatalf("third run: %v", err)
	}
	if third.Reused {
		t.Error("different config reused another request's checkpoint")
	}

	st := s.Stats()
	if st.Reused != 1 {
		t.Errorf("reused counter = %d, want 1", st.Reused)
	}
	if log.count(EventResumed) != 1 {
		t.Errorf("resumed events = %d, want 1", log.count(EventResumed))
	}
	if st.Completed != 3 || st.Failed != 0 {
		t.Errorf("ledger completed=%d failed=%d, want 3/0", st.Completed, st.Failed)
	}
}

func TestHTTPAssessAndOverload(t *testing.T) {
	fb := &fakeBackend{started: make(chan struct{}, 8), block: make(chan struct{})}
	frozen := time.Unix(1700000000, 0)
	s, err := NewServer(Config{
		Backend:    fb,
		Slots:      1,
		QueueDepth: 1,
		TenantRate: 0.001,
		now:        func() time.Time { return frozen },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Drain(context.Background()) }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/assess", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Occupy the slot, then the queue, from distinct tenants (each has one
	// token under the frozen clock).
	go func() { _ = post(`{"tenant":"a","maf_cutoff":0.021}`).Body.Close() }()
	<-fb.started
	go func() { _ = post(`{"tenant":"b","maf_cutoff":0.022}`).Body.Close() }()
	waitFor(t, "queue to fill", func() bool { return s.Stats().Queued == 1 })

	// Capacity exhaustion is the server's state: 503 + structured body.
	resp := post(`{"tenant":"c","maf_cutoff":0.023}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("queue-full status = %d, want 503", resp.StatusCode)
	}
	var shed struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if shed.Error != "overloaded" || shed.Reason != ReasonQueueFull {
		t.Errorf("queue-full body = %+v, want overloaded/queue-full", shed)
	}

	// Quota exhaustion is the caller's pace: 429 + Retry-After.
	resp = post(`{"tenant":"a","maf_cutoff":0.024}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("quota status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota rejection missing Retry-After header")
	}
	resp.Body.Close()

	// Healthy until drained.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d, want 200", hz.StatusCode)
	}

	close(fb.block)
	waitFor(t, "runs to finish", func() bool { return s.Stats().Completed == 2 })

	// /stats reflects the ledger.
	st, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.NewDecoder(st.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if got := wire["completed"].(float64); got != 2 {
		t.Errorf("/stats completed = %v, want 2", got)
	}
	if _, ok := wire["latency"].(map[string]any); !ok {
		t.Errorf("/stats latency block missing: %v", wire["latency"])
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	hz, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain healthz status = %d, want 503", hz.StatusCode)
	}
}

func TestHTTPAssessEndToEnd(t *testing.T) {
	backend := testBackend(t)
	s, err := NewServer(Config{Backend: backend, Checkpoints: checkpoint.NewMemStore(), Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Drain(context.Background()) }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	run := func() AssessResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/assess", "application/json",
			bytes.NewBufferString(`{"tenant":"t","f":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assess status = %d, want 200", resp.StatusCode)
		}
		var wire AssessResponse
		if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
			t.Fatal(err)
		}
		return wire
	}

	first := run()
	if first.SafeCount <= 0 || first.Combinations <= 0 {
		t.Errorf("first response lacks protocol output: %+v", first)
	}
	second := run()
	if !second.Resumed {
		t.Error("identical HTTP request did not resume from the shared checkpoint")
	}
	if second.SafeCount != first.SafeCount || second.Power != first.Power {
		t.Errorf("resumed outcome %+v differs from original %+v", second, first)
	}
}

// shortDeadline is the deadline of the mixed load's expiring requests.
const shortDeadline = time.Millisecond

// shortMark ends the fingerprint of every short-deadline request.
var shortMark = []byte("short")

// queueExpiryBackend wraps the real backend so that the first short-deadline
// request of a mixed load is certain to expire in the queue. Left to timing,
// that request may find a slot free, or coalesce onto a run of the same shape
// already in flight, and never reach the expired-in-queue path:
//   - short requests get a fingerprint of their own, so none rides another
//     request's run;
//   - the first one waits in Fingerprint, before admission, until every slot
//     is parked in Run;
//   - onEvent lets the parked runs go once its deadline has passed in the
//     queue.
type queueExpiryBackend struct {
	Backend
	slots   int
	hold    atomic.Bool
	parked  chan struct{} // one token per run parked by the hold
	release chan struct{} // closed once the first short request has expired
	first   sync.Once
	freed   sync.Once
}

func (b *queueExpiryBackend) Fingerprint(req Request) []byte {
	fp := b.Backend.Fingerprint(req)
	if req.Deadline != shortDeadline {
		return fp
	}
	b.first.Do(func() {
		b.hold.Store(true)
		for i := 0; i < b.slots; i++ {
			<-b.parked
		}
	})
	return append(fp[:len(fp):len(fp)], shortMark...)
}

func (b *queueExpiryBackend) Run(ctx context.Context, req Request, ck checkpoint.Store) (*core.Report, error) {
	if b.hold.Load() {
		select {
		case b.parked <- struct{}{}:
			<-b.release
		case <-b.release:
		}
	}
	return b.Backend.Run(ctx, req, ck)
}

// onEvent releases the parked runs 20 ms after the first short request is
// queued. Its deadline runs from admission, so it has long passed when a
// slot next reads the queue.
func (b *queueExpiryBackend) onEvent(e Event) {
	if e.Event == EventQueued && strings.HasSuffix(e.Key, hex.EncodeToString(shortMark)) {
		b.freed.Do(func() {
			time.AfterFunc(20*time.Millisecond, func() { close(b.release) })
		})
	}
}

// TestMixedLoadLedgerBalances drives the real in-process federation with a
// mixed load: four tenants, eight request shapes over four fingerprints (so
// requests coalesce and reuse retained checkpoints), a 1 ms deadline on every
// 40th request, and a drain started mid-run. Every request must resolve, and
// after the drain no slot or queue entry may be left and the admission ledger
// must balance.
func TestMixedLoadLedgerBalances(t *testing.T) {
	const (
		requests   = 200
		workers    = 8
		tenants    = 4
		shapes     = 8
		shortEvery = 40
		drainAt    = 150
		slots      = 2
	)
	cohort, err := genome.Generate(genome.DefaultGeneratorConfig(48, 60, 42))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := cohort.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewInProcessBackend(shards, cohort.Reference, federation.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	backend := &queueExpiryBackend{
		Backend: inner,
		slots:   slots,
		parked:  make(chan struct{}),
		release: make(chan struct{}),
	}
	s, err := NewServer(Config{
		Backend:     backend,
		Checkpoints: checkpoint.NewMemStore(),
		Slots:       slots,
		QueueDepth:  32,
		DrainGrace:  30 * time.Second,
		OnEvent:     backend.onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	var drainOnce sync.Once
	drain := func() {
		drainOnce.Do(func() {
			if err := s.Drain(context.Background()); err != nil {
				t.Errorf("drain: %v", err)
			}
		})
	}

	request := func(i int) Request {
		shape := i % shapes
		cfg := core.DefaultConfig()
		cfg.MAFCutoff = 0.02 + float64(shape%4)*0.01
		req := Request{
			Tenant:   fmt.Sprintf("tenant-%d", i%tenants),
			Config:   cfg,
			Policy:   core.CollusionPolicy{F: shape % 2},
			Deadline: 30 * time.Second,
		}
		if i%shortEvery == shortEvery-1 {
			req.Deadline = shortDeadline
		}
		return req
	}

	var (
		mu                              sync.Mutex
		completed                       int
		coalesced, reused, shedDraining int
		expiredInQueue                  int
		submitted                       atomic.Int64
		wg                              sync.WaitGroup
	)
	next := make(chan int)
	go func() {
		for i := 0; i < requests; i++ {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if submitted.Add(1) == drainAt {
					drain()
				}
				// A request that has not resolved a minute in, twice its own
				// deadline, never will.
				wait, cancel := context.WithTimeout(context.Background(), time.Minute)
				resp, err := s.Assess(wait, request(i))
				unresolved := wait.Err() != nil
				cancel()
				mu.Lock()
				var ov *OverloadError
				switch {
				case unresolved:
					t.Errorf("request %d did not resolve", i)
				case errors.As(err, &ov):
					if ov.Reason != ReasonDraining {
						t.Errorf("request %d shed as %q; only the drain may shed", i, ov.Reason)
					}
					shedDraining++
				case err != nil:
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("request %d: %v", i, err)
					}
					if strings.Contains(err.Error(), "expired in queue") {
						expiredInQueue++
					}
				default:
					completed++
					if resp.Coalesced {
						coalesced++
					}
					if resp.Reused {
						reused++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	drain()

	st := s.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("leak: %d runs still in flight, %d requests still queued after drain", st.InFlight, st.Queued)
	}
	if st.Admitted != st.Completed+st.Failed+st.ShedAfterAdmission {
		t.Errorf("ledger does not balance: admitted=%d completed=%d failed=%d shedAfterAdmission=%d",
			st.Admitted, st.Completed, st.Failed, st.ShedAfterAdmission)
	}
	t.Logf("%d completed (%d coalesced, %d reused), %d shed draining, %d expired in queue; server: %d admitted, %d failed",
		completed, coalesced, reused, shedDraining, expiredInQueue, st.Admitted, st.Failed)
	if coalesced == 0 || reused == 0 || shedDraining == 0 || expiredInQueue == 0 {
		t.Errorf("load missed a path: %d completed, %d coalesced, %d reused, %d shed draining, %d expired in queue",
			completed, coalesced, reused, shedDraining, expiredInQueue)
	}
}

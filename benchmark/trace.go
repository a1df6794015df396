package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// category names the layer boundary a span was taken at. The order is the
// nesting order of the request: a later category runs inside an earlier one,
// so where several spans overlap the latest category is the one doing the
// work at that instant and receives the time in the exclusive attribution.
type category int

const (
	catRequest    category = iota // client-observed request, due time to answer
	catLate                       // open loop only: due time to actual send
	catQueue                      // service: admission to federation-slot claim
	catDeliver                    // service: completion recorded by the server to the caller resuming
	catRun                        // backend run: dial, attest, three phases, broadcast
	catDial                       // TCP dial of every member link
	catAttest                     // attestation offer out to peer offer in, per link
	catRPCCounts                  // leader blocked on a counts exchange
	catRPCPairs                   // leader blocked on a pair / pair-batch exchange
	catRPCLR                      // leader blocked on an LR pattern / matrix exchange
	catRPCResult                  // result broadcast and shutdown sends
	catCkSave                     // checkpoint.Store.Save (encode, write, fsync, rename)
	catCkLoad                     // checkpoint.Store.Load (read, decode)
	catMemCounts                  // member provider busy: Counts
	catMemPairs                   // member provider busy: PairStats / PairStatsBatch
	catMemPattern                 // member provider busy: LRPattern
	catMemMatrix                  // member provider busy: LRMatrix
	numCategories
)

var categoryNames = [numCategories]string{
	"request", "loadgen.late", "service.queue", "service.deliver", "backend.run", "dial", "attest",
	"rpc.counts", "rpc.pairs", "rpc.lr", "rpc.result",
	"checkpoint.save", "checkpoint.load",
	"member.counts", "member.pairbatch", "member.lrpattern", "member.lrmatrix",
}

// msgClass groups protocol message kinds for the byte and message counts.
type msgClass int

const (
	classAttest msgClass = iota
	classCounts
	classPairs
	classLR
	classResult
	classOther
	numClasses
)

// rpcCategory maps the class of a request to the span category of the
// exchange it opens.
var rpcCategory = [numClasses]category{catAttest, catRPCCounts, catRPCPairs, catRPCLR, catRPCResult, catRPCResult}

// span is one timed interval at a layer boundary, as written to the span file.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Link   int    `json:"link"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	cat    category
}

// epoch anchors span times; only differences are ever reported.
var epoch = time.Now()

func sinceEpoch(t time.Time) int64 { return int64(t.Sub(epoch)) }

// runTrace collects what the wrappers saw during one backend run. The leader
// drives its member links from several goroutines and the member nodes serve
// on their own, so every method locks.
type runTrace struct {
	mu    sync.Mutex
	spans []span
	bytes [numClasses]int64 // ciphertext payload bytes by message class, both directions
	trips []int             // completed request/reply exchanges per link

	// Program-reported values copied from the Report when the run ends.
	phase        [4]time.Duration
	combinations int
}

func newRunTrace(links int) *runTrace {
	return &runTrace{trips: make([]int, links), spans: make([]span, 0, 256)}
}

func (r *runTrace) add(c category, link int, start, end time.Time, bytes int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{cat: c, Link: link, Start: sinceEpoch(start), End: sinceEpoch(end), Bytes: bytes})
	r.mu.Unlock()
}

func (r *runTrace) count(c msgClass, payload int) {
	r.mu.Lock()
	r.bytes[c] += int64(payload)
	r.mu.Unlock()
}

func (r *runTrace) trip(link int) {
	r.mu.Lock()
	r.trips[link]++
	r.mu.Unlock()
}

// attribution is the per-request reduction of a span set.
type attribution struct {
	// exclusive[c] is the time during which c was the innermost active
	// category; the entries sum to the request's wall time exactly.
	exclusive [numCategories]int64
	// covered[c] is the time during which at least one span of c was active.
	covered [numCategories]int64
	// busy[c] is the plain sum of span durations of c (work, not wall time).
	busy  [numCategories]int64
	count [numCategories]int64
}

// attribute sweeps the spans of one request in time order. Spans are clipped
// to the request span so a member that finishes a hair after the client was
// answered cannot push the shares past one.
func attribute(spans []span) attribution {
	var a attribution
	lo, hi := int64(0), int64(0)
	for _, s := range spans {
		if s.cat == catRequest {
			lo, hi = s.Start, s.End
		}
	}
	type edge struct {
		at    int64
		cat   category
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		a.busy[s.cat] += s.End - s.Start
		a.count[s.cat]++
		start, end := max(s.Start, lo), min(s.End, hi)
		if end <= start {
			continue
		}
		edges = append(edges, edge{start, s.cat, +1}, edge{end, s.cat, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var active [numCategories]int
	for i, e := range edges {
		if i > 0 {
			if dt := e.at - edges[i-1].at; dt > 0 {
				inner := category(-1)
				for c := category(0); c < numCategories; c++ {
					if active[c] > 0 {
						a.covered[c] += dt
						inner = c
					}
				}
				if inner >= 0 {
					a.exclusive[inner] += dt
				}
			}
		}
		active[e.cat] += e.delta
	}
	return a
}

// finishSpans names the spans, numbers them and gives each the innermost
// enclosing span of an outer category as its parent: member spans hang under
// the exchange on their own link, everything else under the run or request.
func finishSpans(req int, spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].cat < spans[j].cat
	})
	for i := range spans {
		s := &spans[i]
		s.Req, s.ID, s.Parent, s.Name = req, i, -1, categoryNames[s.cat]
		for j := i - 1; j >= 0; j-- {
			p := &spans[j]
			if p.cat >= s.cat || p.End < s.End {
				continue
			}
			if s.cat >= catMemCounts && p.cat >= catRPCCounts && p.Link != s.Link {
				continue
			}
			s.Parent = j
			break
		}
	}
}

// spanFile keeps the spans of the first requests of a traced run in memory
// and writes them out when the benchmark ends.
type spanFile struct {
	requests int
	spans    []span
}

// maxSpanRequests bounds the span file: a paper-scale request has ~3,500
// spans, and the per-layer numbers are reduced request by request anyway.
const maxSpanRequests = 40

func (f *spanFile) keep(spans []span) {
	if f.requests >= maxSpanRequests {
		return
	}
	f.requests++
	f.spans = append(f.spans, spans...)
}

func (f *spanFile) write(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	for i := range f.spans {
		if err := enc.Encode(&f.spans[i]); err != nil {
			_ = out.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = out.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return out.Close()
}

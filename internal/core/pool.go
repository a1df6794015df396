package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// workPool bounds the leader's CPU work: the collusion chains of Phases 2
// and 3 run on at most GOMAXPROCS workers (RunStealing), and the lattice plan
// is cut to that many. Member fan-outs do not go through it — they wait on
// the network, not on the leader's CPUs, so each member gets its own
// goroutine.
type workPool struct {
	workers int
}

func newWorkPool(size int) *workPool {
	return &workPool{workers: max(size, 1)}
}

func defaultWorkPool() *workPool {
	return newWorkPool(runtime.GOMAXPROCS(0))
}

// size returns the pool's concurrency cap.
func (p *workPool) size() int { return p.workers }

// RunStealing evaluates n indivisible tasks across up to workers goroutines
// with work stealing. Each worker owns a contiguous slice of the task range
// and claims its own tasks front to back; a worker that drains its range
// steals unstarted tasks from other ranges, scanning them back to front so
// thieves and owners collide as late as possible. Claims are per-task
// compare-and-swaps, so every task runs exactly once regardless of who gets
// it. The evaluation chains of the combination lattice are exactly this
// shape: contiguous chains whose lengths are equal but whose costs are not
// (seeded checkpoint replays make some chains nearly free), and stealing
// keeps all workers busy without predicting which chains are cheap.
//
// Task errors do not cancel peers — each task is independently recorded and
// the joined error is returned after all claimed tasks finish, matching the
// error semantics of forEachSubset.
func (p *workPool) RunStealing(n, workers int, run func(task int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var errs []error
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}

	claimed := make([]int32, n)
	errs := make([]error, n)
	claim := func(i int) bool {
		return atomic.CompareAndSwapInt32(&claimed[i], 0, 1)
	}
	// Worker w owns [w*n/workers, (w+1)*n/workers).
	lo := func(w int) int { return w * n / workers }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo(w); i < lo(w+1); i++ {
				if claim(i) {
					errs[i] = run(i)
				}
			}
			// Own range drained: steal from victims, latest victim first,
			// scanning each back to front.
			for v := workers - 1; v >= 0; v-- {
				if v == w {
					continue
				}
				for i := lo(v+1) - 1; i >= lo(v); i-- {
					if claim(i) {
						errs[i] = run(i)
					}
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

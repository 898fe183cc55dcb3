// Package parallel is the worker pool the pipeline and the matcher
// share: a loop over [0, n) run on a bounded number of goroutines, each
// call writing its result into its own index's slot.
package parallel

import (
	"context"
	"runtime"
	"sync"
)

// clampWorkers bounds a configured worker count by the CPUs the
// scheduler can actually run simultaneously (the smaller of NumCPU and
// GOMAXPROCS): the work sent to these pools is CPU-bound, so workers
// beyond that only preempt each other. Results are identical for any
// worker count — callers write into per-index slots — so the clamp
// changes scheduling, never output.
func clampWorkers(workers int) int {
	limit := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p < limit {
		limit = p
	}
	if workers > limit {
		return limit
	}
	return workers
}

// For runs f(i) for every i in [0, n) on up to workers goroutines
// (clamped to the CPUs that can run them), blocking until all calls
// return; indexes are handed out dynamically, which balances uneven
// per-index costs. With workers <= 1 (or a trivial n) it degenerates to
// a plain loop on the calling goroutine.
//
// Callers write results into per-index slots, so the merge order is the
// index order and the outcome is identical to the sequential loop
// whenever each f(i) is independent of the others.
//
// Cancellation is prompt: once ctx is done no new index is claimed, so
// the loop stops after at most one in-flight f per worker. It always
// waits for the in-flight calls — no goroutine outlives the return —
// and callers detect the partial result via ctx.Err() plus whichever
// per-index slots were never written.
func For(ctx context.Context, n, workers int, f func(int)) {
	workers = clampWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			f(i)
		}
		return
	}
	var next struct {
		sync.Mutex
		i int
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				next.Lock()
				i := next.i
				next.i++
				next.Unlock()
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

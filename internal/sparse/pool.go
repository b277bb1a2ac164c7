package sparse

import (
	"fmt"
	"runtime"
	"sync"

	"thermplace/internal/fault"
)

// Pool runs the partitioned operations of this package's kernels: the CG
// iteration ops and the spectral preconditioner's passes share one Pool, so
// a thermal solver splits every operation over the same workers. Run is fork-join,
// so no goroutine outlives a run and a Pool needs no Close. A Pool is not
// safe for concurrent Run calls; the solvers issue sequential operations.
type Pool struct {
	workers int
	partial []float64
}

// NewPool creates a pool of the given size. workers <= 0 picks GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.partial = make([]float64, workers*padStride)
	}
	return p
}

// AutoWorkers returns the pool size for an n-row system: GOMAXPROCS capped
// so every worker owns at least minRowsPerWorker rows (and at least 1). The
// thermal solver sizes its pool with it.
func AutoWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if byRows := n / minRowsPerWorker; w > byRows {
		w = byRows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Parallel reports whether a k-way operation runs on the pool (not on a nil
// or 1-worker pool, nor for k < 2); callers otherwise run it serially.
func (p *Pool) Parallel(k int) bool { return p != nil && k >= 2 && p.workers >= 2 }

// Run executes task(w) for w = 0..k-1, task 0 on the caller and the others
// on goroutines started for this run, joins them, and returns the
// per-worker results summed in worker order (bit-stable for a fixed k,
// whichever goroutine ran which task). Callers must have obtained
// Parallel(k) == true; k must not exceed Workers().
//
// A panicking task is contained: the siblings finish their ranges, and
// after the join Run rethrows the first panic as a located *fault.ErrPanic
// on the caller, whose solver's recovery converts it into an error.
func (p *Pool) Run(k int, task func(w int) float64) float64 {
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicErr *fault.ErrPanic
	)
	runTask := func(w int) {
		defer wg.Done()
		defer func() {
			if v := recover(); v != nil {
				panicMu.Lock()
				if panicErr == nil {
					panicErr = fault.Recovered(fmt.Sprintf("sparse.Pool worker %d", w), v)
				}
				panicMu.Unlock()
			}
		}()
		p.partial[w*padStride] = task(w)
	}
	wg.Add(k)
	for w := 1; w < k; w++ {
		//repolint:allow bareGo(Pool is itself the solver concurrency primitive the rule points to)
		go runTask(w)
	}
	runTask(0)
	wg.Wait()
	if panicErr != nil {
		panic(panicErr)
	}
	sum := 0.0
	for w := 0; w < k; w++ {
		sum += p.partial[w*padStride]
	}
	return sum
}

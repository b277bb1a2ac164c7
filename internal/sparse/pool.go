package sparse

import (
	"fmt"
	"runtime"
	"sync"

	"thermplace/internal/fault"
)

// Pool is a set of parked worker goroutines executing row-partitioned
// operations. It is shared by the kernels in this package that want
// parallelism without per-solve goroutine churn: the CG iteration ops and
// the multigrid red-black smoother run on the same pool, so a thermal
// solver owns exactly one set of workers regardless of how many operators
// are stacked inside it.
//
// The goroutines are started lazily on the first parallel run and parked on
// their channels between runs. A Pool is not safe for concurrent Run calls;
// the solvers in this repository issue strictly sequential operations.
type Pool struct {
	workers int
	ops     []chan func(w int) float64
	wg      sync.WaitGroup
	partial []float64
	started bool
	closed  bool

	// panicMu guards panicErr, the first panic a worker contained during
	// the run in flight; Run rethrows it on the calling goroutine.
	panicMu  sync.Mutex
	panicErr *fault.ErrPanic
}

// NewPool creates a pool of the given size. workers <= 0 picks GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.partial = make([]float64, workers*padStride)
		p.ops = make([]chan func(w int) float64, workers)
		for i := range p.ops {
			p.ops[i] = make(chan func(w int) float64, 1)
		}
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

// Parallel reports whether a k-way partitioned operation runs on the pool,
// starting the worker goroutines lazily. It returns false once the pool is
// closed or when k < 2; callers then run their serial fallback.
func (p *Pool) Parallel(k int) bool {
	if p == nil || k < 2 || p.workers < 2 || p.closed {
		return false
	}
	if !p.started {
		for w := 0; w < p.workers; w++ {
			//repolint:allow bareGo(Pool is itself the solver concurrency primitive the rule points to)
			go p.worker(w)
		}
		p.started = true
	}
	return true
}

// Run executes task(w) for w = 0..k-1 on the pool workers and returns the
// per-worker results summed in worker order (so reductions are bit-stable
// for a fixed k). Callers must have obtained Parallel(k) == true; k must
// not exceed Workers().
//
// A panic inside a task does not kill the worker goroutine or deadlock the
// sibling workers: the worker contains it, the siblings finish their ranges,
// and Run rethrows the first contained panic — as a located *fault.ErrPanic
// — on the calling goroutine, where the owning solver's recovery converts it
// into an ordinary error. The pool stays usable afterwards.
func (p *Pool) Run(k int, task func(w int) float64) float64 {
	p.wg.Add(k)
	for w := 0; w < k; w++ {
		p.ops[w] <- task
	}
	p.wg.Wait()
	p.panicMu.Lock()
	pe := p.panicErr
	p.panicErr = nil
	p.panicMu.Unlock()
	if pe != nil {
		panic(pe)
	}
	sum := 0.0
	for w := 0; w < k; w++ {
		sum += p.partial[w*padStride]
	}
	return sum
}

func (p *Pool) worker(w int) {
	for task := range p.ops[w] {
		p.runTask(w, task)
	}
}

// runTask executes one task, containing a panic so the worker survives and
// the barrier in Run is always released.
func (p *Pool) runTask(w int, task func(w int) float64) {
	defer p.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			p.panicMu.Lock()
			if p.panicErr == nil {
				p.panicErr = fault.Recovered(fmt.Sprintf("sparse.Pool worker %d", w), v)
			}
			p.panicMu.Unlock()
		}
	}()
	p.partial[w*padStride] = task(w)
}

// Close stops the worker goroutines. Operations issued afterwards run
// serially on the calling goroutine. Close is idempotent.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	if p.started {
		for _, ch := range p.ops {
			close(ch)
		}
		p.started = false
	}
	p.closed = true
}

package sparse

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count returns to base, failing
// with a full stack dump if it does not settle.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCGCloseReleasesWorkers is the goroutine-leak regression for the CG's
// worker pool: repeated create / parallel-solve / pool Close cycles must
// leave the goroutine count where it started, and a CG whose pool is closed
// must keep working serially.
func TestCGCloseReleasesWorkers(t *testing.T) {
	m := NewStencil7(24, 24, 4)
	// Strictly diagonally dominant symmetric stencil: SPD by construction.
	for i := range m.Diag {
		m.Diag[i] = 8
	}
	for i := range m.Val {
		m.Val[i] = -1
	}
	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64(i%7) + 1
	}

	base := runtime.NumGoroutine()
	var last *CG
	for cycle := 0; cycle < 8; cycle++ {
		pool := NewPool(4)
		cg := NewCG(m, pool, 0)
		if cg.workers != 4 {
			t.Fatalf("CG on a 4-worker pool runs %d workers", cg.workers)
		}
		x := make([]float64, m.N)
		if _, _, err := solve(cg, b, x, nil); err != nil {
			t.Fatal(err)
		}
		pool.Close()
		pool.Close() // Close must be idempotent
		last = cg
	}
	waitGoroutines(t, base)

	// A CG on a closed pool still solves, serially, without restarting it.
	x := make([]float64, m.N)
	if _, _, err := solve(last, b, x, nil); err != nil {
		t.Fatalf("solve after Close: %v", err)
	}
	waitGoroutines(t, base)
}

package main

import "time"

// tracer accumulates the per-layer cost of one replayed op: the wall time
// inside each layer's call, taken by a span the benchmark's own code puts
// around that call, and the counts the layers' results report. A tracer
// that is off only runs the calls, so the same replay code also measures
// itself untraced.
type tracer struct {
	on     bool
	values map[string]float64
	spans  float64 // total span time, ms

	// inject is a self-test hook: after a span of the named layer completes,
	// busy-wait inside that span for the given fraction of its duration.
	inject map[string]float64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, values: map[string]float64{}}
}

// span runs f as one call into the named layer.
func (t *tracer) span(layer string, f func()) {
	if !t.on {
		f()
		return
	}
	t0 := time.Now()
	f()
	if frac := t.inject[layer]; frac > 0 {
		spin(time.Duration(frac * float64(time.Since(t0))))
	}
	d := ms(time.Since(t0))
	t.values[layer] += d
	t.spans += d
}

// count adds v to a count metric.
func (t *tracer) count(name string, v int) {
	if t.on {
		t.values[name] += float64(v)
	}
}

// spin busy-waits for d, keeping the CPU as busy as real work would.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

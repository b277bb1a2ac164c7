package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between the closest ranks; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocSample reads the cumulative heap allocation counter without stopping
// the world, so it can bracket every operation.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocatedBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// settleHeap collects garbage and returns freed memory to the OS, so a
// timed window does not start by paying for the set-up's garbage.
func settleHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// gcCounters returns the completed GC cycles and the total stop-the-world
// pause time so far.
func gcCounters() (cycles uint32, pause time.Duration) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC, time.Duration(m.PauseTotalNs)
}

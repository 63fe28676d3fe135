package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for an empty sample).
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

func mib(b float64) float64 { return b / (1 << 20) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's maximum resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// allocSample reads the cumulative heap allocation counter without
// stopping the world (runtime.ReadMemStats would).
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocated() uint64 {
	metrics.Read(allocSample)
	if allocSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return allocSample[0].Value.Uint64()
}

// totalAlloc is the exact cumulative heap allocation, small objects
// included; it stops the world, so it is read only outside the loop.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// usage is a point-in-time reading of the process counters an update
// is charged for.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	return usage{cpu: cpuTime(), alloc: heapAllocated()}
}

// gcState is the collector's cumulative cycle count and pause time.
type gcState struct {
	cycles uint32
	pause  time.Duration
}

func readGC() gcState {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcState{cycles: m.NumGC, pause: time.Duration(m.PauseTotalNs)}
}

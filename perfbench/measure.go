package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 7

// timeSetup runs setup setupReps times and returns the median duration in
// seconds; the last set-up's state is the one the run uses.
func timeSetup(setup func() error) (float64, error) {
	ds := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return median(ds), nil
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allocatedMB returns the bytes allocated on the heap so far, in MB.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

// liveHeapMB collects garbage and returns the live heap in MB. The second
// collection frees what sync.Pool victim caches kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// overheadPct is how much slower traced work ran than untraced work, in
// percent of the untraced time.
func overheadPct(traced, untraced float64) float64 {
	return 100 * (ratio(traced, untraced) - 1)
}

// zeroLayers returns every per-layer metric at 0, for a workload to fill
// in the layers it exercises.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

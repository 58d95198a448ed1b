package main

import (
	"math"
	"runtime/metrics"
)

// gcReading is a snapshot of the runtime counters whose deltas give the
// allocation and GC metrics of a span of work.
type gcReading struct {
	allocBytes float64
	gcCPU      float64 // seconds
	pauses     float64 // seconds, approximated from the pause histogram
}

var gcSamples = func() []metrics.Sample {
	names := []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/sched/pauses/total/gc:seconds"}
	have := map[string]bool{}
	for _, d := range metrics.All() {
		have[d.Name] = true
	}
	if !have[names[2]] {
		names[2] = "/gc/pauses:seconds" // runtimes before Go 1.22
	}
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	return s
}()

func readGC() gcReading {
	metrics.Read(gcSamples)
	var r gcReading
	if gcSamples[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = float64(gcSamples[0].Value.Uint64())
	}
	if gcSamples[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = gcSamples[1].Value.Float64()
	}
	if gcSamples[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := gcSamples[2].Value.Float64Histogram()
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			// Open-ended edge buckets count at their finite edge.
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			r.pauses += float64(c) * (lo + hi) / 2
		}
	}
	return r
}

func (r gcReading) sub(o gcReading) gcReading {
	return gcReading{allocBytes: r.allocBytes - o.allocBytes, gcCPU: r.gcCPU - o.gcCPU, pauses: r.pauses - o.pauses}
}

func (r gcReading) add(o gcReading) gcReading {
	return gcReading{allocBytes: r.allocBytes + o.allocBytes, gcCPU: r.gcCPU + o.gcCPU, pauses: r.pauses + o.pauses}
}

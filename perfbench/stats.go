package main

import (
	"fmt"
	"math"
	"sort"
)

// sample is a set of timings of one kind, in the metric's own unit.
type sample []float64

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks; 0 for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) sum() float64 {
	var t float64
	for _, x := range s {
		t += x
	}
	return t
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// tailPct is the highest whole percentile with at least ten samples
// beyond it, so a tail figure always rests on ten observations. Below
// eleven samples no percentile qualifies and the maximum (p100) stands
// in for it; between eleven and twenty the rule would fall below the
// median, and the median stands in.
func tailPct(n int) int {
	if n <= 10 {
		return 100
	}
	return max(50, int(math.Floor(100*(1-10/float64(n)))))
}

func (s sample) tail() (value float64, pct int) {
	pct = tailPct(len(s))
	return s.quantile(float64(pct) / 100), pct
}

// metric is one reported figure with the provenance the report prints
// next to it: how many samples it summarizes and which statistic it is.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int    // samples behind the value; 0 for counts and totals
	Stat  string // "p50", "p97", "mean", "total", ...
}

func (m metric) String() string {
	if m.N > 0 {
		return fmt.Sprintf("%-26s %16.6f %-9s %s of %d samples", m.Name, m.Value, m.Unit, m.Stat, m.N)
	}
	return fmt.Sprintf("%-26s %16.6f %-9s %s", m.Name, m.Value, m.Unit, m.Stat)
}

// p50Metric and tailMetric summarize a sample under the naming the
// benchmark uses: <base>_p50 and <base>_tail.
func p50Metric(name, unit string, s sample) metric {
	return metric{Name: name, Unit: unit, Value: s.median(), N: len(s), Stat: "p50"}
}

func tailMetric(name, unit string, s sample) metric {
	v, pct := s.tail()
	return metric{Name: name, Unit: unit, Value: v, N: len(s), Stat: fmt.Sprintf("p%d", pct)}
}

package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// pct is one order statistic of a sample: the value at the p-th
// nearest-rank percentile, the sample count n, and how many samples lie
// strictly beyond it.
type pct struct {
	P      float64
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank p-th percentile of samples (which
// it does not modify). An empty sample yields N = 0 and a NaN value.
func percentile(samples []float64, p float64) pct {
	n := len(samples)
	if n == 0 {
		return pct{P: p, Value: math.NaN()}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	// The slack keeps p/100*n from rounding up past an exact rank
	// (99.9/100*1000 is 999.0000000000001 in floating point).
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return pct{P: p, Value: s[rank-1], N: n, Beyond: n - rank}
}

// tailPercentiles lists the tail percentiles tried, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of tailPercentiles that still has
// at least minBeyond samples beyond it (the median when none has).
func tail(samples []float64, minBeyond int) pct {
	for _, p := range tailPercentiles {
		if q := percentile(samples, p); q.Beyond >= minBeyond {
			return q
		}
	}
	return percentile(samples, 50)
}

// median is the 50th nearest-rank percentile's value.
func median(samples []float64) float64 {
	return percentile(samples, 50).Value
}

// span is one timed call recorded by the benchmark: a layer boundary
// with its parent, sharing the request's trace id with its siblings.
// Times are nanoseconds since the traced run started.
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// id: its duration minus the part of its interval that its children
// cover (overlapping children count once, and a child sticking out of
// its parent counts only inside it).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// metricName is the benchmark's metric-name grammar.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checkMetrics rejects a metric set with a malformed name or a value
// JSON cannot carry.
func checkMetrics(ms map[string]metric) error {
	for name, m := range ms {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q does not match %s", name, metricName)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no finite value (%v)", name, m.Value)
		}
	}
	return nil
}

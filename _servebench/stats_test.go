package main

import (
	"math"
	"slices"
	"testing"
)

func TestPercentile(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // 1000..1, unsorted
	}
	for _, tc := range []struct {
		p      float64
		value  float64
		beyond int
	}{
		{50, 500, 500},
		{99, 990, 10},
		{99.9, 999, 1},
		{100, 1000, 0},
		{0, 1, 999},
	} {
		got := percentile(samples, tc.p)
		if got.Value != tc.value || got.N != 1000 || got.Beyond != tc.beyond {
			t.Errorf("percentile(1..1000, %v) = %+v, want value %v, n 1000, %d beyond", tc.p, got, tc.value, tc.beyond)
		}
	}
	if samples[0] != 1000 { // the input must be left untouched
		t.Errorf("percentile reordered its input")
	}
	if got := percentile(nil, 50); got.N != 0 || !math.IsNaN(got.Value) {
		t.Errorf("percentile(nil) = %+v, want n 0 and NaN", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{
		{20000, 99.9}, // 20 beyond
		{1000, 99},    // p99.9 has 1 beyond, p99 has 10
		{999, 95},     // p99 has 9 beyond
		{100, 90},     // p95 has 5 beyond, p90 has 10
		{5, 50},       // nothing has 10 beyond: the median
	} {
		samples := make([]float64, tc.n)
		for i := range samples {
			samples[i] = float64(i)
		}
		got := tail(samples, 10)
		if got.P != tc.p || got.N != tc.n {
			t.Errorf("tail(n=%d) = p%v over %d samples, want p%v", tc.n, got.P, got.N, tc.p)
		}
	}
}

func TestFastest(t *testing.T) {
	rps := []float64{250, 310, 180, 310, 290, 320, 270}
	segs := make([]segment, len(rps))
	for i, r := range rps {
		segs[i] = segment{rps: r, p50: float64(i)}
	}
	// The five fastest, ties in run order, returned in run order.
	var got []float64
	for _, s := range fastest(segs, 5) {
		got = append(got, s.p50)
	}
	if want := []float64{1, 3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Errorf("fastest picked segments %v, want %v", got, want)
	}
	if n := len(fastest(segs[:3], 5)); n != 3 {
		t.Errorf("fastest of 3 segments kept %d, want all 3", n)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps a: union 10..50
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // sticks out: 10 inside
		{Name: "d", ID: 5, Parent: 3, Start: 25, End: 35},
		{Name: "e", ID: 6, Parent: 3, Start: 30, End: 32}, // inside d
	}
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 2}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range []string{"latency_p50_ms", "wal.append_us_p99", "serve.handler_ms_p50", "trace.overhead_pct", "9-x"} {
		if !metricName.MatchString(name) {
			t.Errorf("%q rejected", name)
		}
	}
	for _, name := range []string{"", ".lead", "_lead", "has space", "p/99", "µs", "x{y}",
		"a1234567890123456789012345678901234567890123456789012345678901234"} {
		if metricName.MatchString(name) {
			t.Errorf("%q accepted", name)
		}
	}
	if err := checkMetrics(map[string]metric{"ok": {1, "ms"}, "bad name": {1, "ms"}}); err == nil {
		t.Error("checkMetrics accepted a malformed name")
	}
	if err := checkMetrics(map[string]metric{"nan": {math.NaN(), "ms"}}); err == nil {
		t.Error("checkMetrics accepted NaN")
	}
}

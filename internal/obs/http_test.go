package obs

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds the registry every exposition test renders: a
// deterministic fixture shaped like a real run (risk-cache counters,
// worker-utilization series, a posterior-timing histogram), so the
// golden file doubles as documentation of the /metrics payload.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("dplearn_risk_cache_hits_total", "risk-vector cache hits").Add(7)
	reg.Counter("dplearn_risk_cache_misses_total", "risk-vector cache misses").Add(2)
	reg.Counter("dplearn_risk_cache_evictions_total", "risk-vector cache evictions").Add(1)
	reg.Counter("dplearn_parallel_runs_total", "parallel-engine runs by execution mode", "mode", "parallel").Add(3)
	reg.Counter("dplearn_parallel_runs_total", "parallel-engine runs by execution mode", "mode", "serial").Add(2)
	reg.Counter("dplearn_parallel_chunks_total", "index chunks processed by the parallel engine").Add(40)
	reg.Counter("dplearn_parallel_worker_chunks_total", "chunks claimed per worker slot (utilization)", "worker", "0").Add(25)
	reg.Counter("dplearn_parallel_worker_chunks_total", "chunks claimed per worker slot (utilization)", "worker", "1").Add(15)
	reg.Gauge("dplearn_build_info", `build marker with a "quoted" label`, "version", `v0\dev`).Set(1)
	h := reg.Histogram("dplearn_gibbs_posterior_ticks", "posterior normalization duration in clock ticks", []float64{100, 10000, 1000000})
	h.Observe(50)
	h.Observe(5000)
	h.Observe(2000000)
	return reg
}

// TestMetricsEndpointGolden serves the fixture registry through the real
// mux and pins the /metrics payload byte-for-byte against a golden file
// (refresh with `go test ./internal/obs -run Golden -update`). The
// payload is also checked line-by-line for Prometheus text-format
// plausibility so the golden cannot drift into an unparseable state.
func TestMetricsEndpointGolden(t *testing.T) {
	srv := httptest.NewServer(NewServeMux(goldenRegistry(), false))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) {
		t.Errorf("/metrics drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, body, want)
	}

	checkPrometheusText(t, string(body))
	for _, series := range []string{
		"dplearn_risk_cache_hits_total 7",
		`dplearn_parallel_worker_chunks_total{worker="0"} 25`,
		`dplearn_gibbs_posterior_ticks_bucket{le="+Inf"} 3`,
		"dplearn_gibbs_posterior_ticks_count 3",
	} {
		if !strings.Contains(string(body), series+"\n") {
			t.Errorf("/metrics missing series %q", series)
		}
	}
}

// checkPrometheusText is a minimal text-format parser: every line must
// be a comment (# HELP / # TYPE) or `name{labels} value`, and every
// sample's family must have a preceding # TYPE line.
func checkPrometheusText(t *testing.T, body string) {
	t.Helper()
	typed := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: bad TYPE line %q", ln+1, line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, fields[3])
			}
			typed[fields[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i > 0 {
			name = name[:i]
		}
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && typed[base] {
				fam = base
				break
			}
		}
		if !typed[fam] {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln+1, line)
		}
		if strings.Count(line, " ") < 1 {
			t.Fatalf("line %d: no value field in %q", ln+1, line)
		}
	}
}

// TestServeMuxPprofAndExpvar smoke-tests the debug endpoints: pprof is
// mounted only when requested, and /debug/vars serves JSON carrying the
// registry snapshot.
func TestServeMuxPprofAndExpvar(t *testing.T) {
	reg := goldenRegistry()

	withPprof := httptest.NewServer(NewServeMux(reg, true))
	defer withPprof.Close()
	resp, err := http.Get(withPprof.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get(withPprof.URL + "/debug/pprof/symbol")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof symbol status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(withPprof.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("expvar payload is not JSON: %v", err)
	}
	resp.Body.Close()
	snap, ok := vars["dplearn_metrics"]
	if !ok {
		t.Fatal("expvar payload missing dplearn_metrics")
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(snap, &metrics); err != nil {
		t.Fatalf("dplearn_metrics is not a registry snapshot: %v", err)
	}
	if _, ok := metrics["dplearn_risk_cache_hits_total"]; !ok {
		t.Fatal("expvar snapshot missing risk-cache counter")
	}

	noPprof := httptest.NewServer(NewServeMux(reg, false))
	defer noPprof.Close()
	resp, err = http.Get(noPprof.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof should be absent without opt-in, got status %d", resp.StatusCode)
	}
}

// TestServeLifecycle binds :0, fetches /metrics over a real listener,
// and shuts down — the exact path the CLIs use for -metrics-addr.
func TestServeLifecycle(t *testing.T) {
	addr, stop, err := Serve("127.0.0.1:0", goldenRegistry(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "dplearn_risk_cache_hits_total 7") {
		t.Fatal("served /metrics missing fixture series")
	}
}

// TestServeGracefulShutdown pins the drain behavior: a scrape in flight
// when shutdown starts completes intact (no torn /metrics body), new
// connections are refused, and shutdown returns promptly.
func TestServeGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	inHandler := make(chan struct{})
	// The refused-connection probe below may still reach this handler
	// before the listener closes. Only the first arrival is the
	// in-flight scrape; a probe returns at once, so the probe loop
	// retries instead of blocking on release.
	var entered sync.Once
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		first := false
		entered.Do(func() { first = true; close(inHandler) })
		if !first {
			return
		}
		<-release
		fmt.Fprint(w, "drained-in-full")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	addr := ln.Addr().String()

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- result{body: string(b), err: err}
	}()
	<-inHandler

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	// The listener closes before in-flight requests drain: a new scrape
	// must be refused while the old one is still being served.
	deadline := time.Now().Add(shutdownGrace)
	for {
		if _, err := http.Get("http://" + addr + "/slow"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting during shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight scrape failed during graceful shutdown: %v", r.err)
	}
	if r.body != "drained-in-full" {
		t.Fatalf("in-flight scrape torn: %q", r.body)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown did not drain within grace: %v", err)
	}
}

// TestServeShutdownForceClosesHungRequests pins the grace bound: a
// handler that never finishes cannot stall the shutdown func past
// shutdownGrace.
func TestServeShutdownForceClosesHungRequests(t *testing.T) {
	old := shutdownGrace
	shutdownGrace = 50 * time.Millisecond
	defer func() { shutdownGrace = old }()

	reg := goldenRegistry()
	addr, stop, err := Serve("127.0.0.1:0", reg, true)
	if err != nil {
		t.Fatal(err)
	}
	// A 30-second CPU profile stream is the canonical hung scrape.
	go func() {
		resp, err := http.Get("http://" + addr + "/debug/pprof/profile?seconds=30")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// Wait until the profile request is being served.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	stop()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shutdown took %v, not bounded by the %v grace", elapsed, shutdownGrace)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still serving after shutdown")
	}
}

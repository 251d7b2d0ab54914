package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obsglue"
	"repro/internal/serve"
	"repro/internal/wal"
)

// recorder keeps spans in memory; they are written out when the run
// ends. Times are relative to t0.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func (rc *recorder) add(name, trace string, parent int64, start, end time.Time) int64 {
	id := rc.newID()
	rc.put(span{Name: name, Trace: trace, ID: id, Parent: parent}, start, end)
	return id
}

// newID reserves a span id, so a parent's id is known before its
// children end.
func (rc *recorder) newID() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.next++
	return rc.next
}

func (rc *recorder) put(s span, start, end time.Time) {
	s.Start, s.End = start.Sub(rc.t0).Nanoseconds(), end.Sub(rc.t0).Nanoseconds()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.spans = append(rc.spans, s)
}

// timed runs f as a child span of parent.
func (rc *recorder) timed(name, trace string, parent int64, f func()) {
	start := time.Now()
	f()
	rc.add(name, trace, parent, start, time.Now())
}

func (rc *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range rc.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error supersedes
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error supersedes
		return err
	}
	return f.Close()
}

// phase is one closed-loop pass over HTTP against an in-process server.
type phase struct {
	timed      tally
	timedOuts  []outcome
	sent       int // warm-up plus timed requests
	spending   int // spending requests among them
	fsyncs     float64
	walBytes   int64
	traceBytes int64
	admitted   int
	// riskEvals counts risk-grid evaluations (risk-cache misses) and
	// gibbsReqs the fit and certify requests among the timed ones.
	riskEvals float64
	gibbsReqs int
	reserves  int
	commits   int
	gate      []error
}

// httpPhase boots serve.New in-process with the configuration
// dplearn-serve gets (WAL, trace stream, access log) over a copy of the
// seeded history, and drives the warm-up and n timed requests over
// loopback HTTP. With rec set, each request gets a client span and a
// serve.handler span under the same trace id.
func httpPhase(w workload, reqs []request, n int, dur time.Duration, template, dir string, rec *recorder) (*phase, error) {
	walDir := filepath.Join(dir, "wal")
	if err := copyDir(template, walDir); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(dir, "serve_trace.ndjson")
	rt, err := obsglue.Start(obsglue.Flags{Trace: tracePath})
	if err != nil {
		return nil, err
	}
	accessPath := filepath.Join(dir, "serve_access.ndjson")
	alogFile, err := os.Create(accessPath)
	if err != nil {
		_ = rt.Close(nil) // the create error supersedes
		return nil, err
	}
	alog := obs.NewAccessLog(alogFile)
	cfgs, err := serve.ParseTenantBudgets(w.tenantDecl(), core.DegradeRefuse)
	if err != nil {
		return nil, err
	}
	s, err := serve.New(serve.Config{Tenants: cfgs, Observer: rt.Obs, AccessLog: alog, WALDir: walDir})
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	if rec != nil {
		inner := h
		h = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			start := time.Now()
			inner.ServeHTTP(rw, r)
			end := time.Now()
			tc, err := obs.ParseTraceparent(r.Header.Get("Traceparent"))
			if err == nil && strings.HasPrefix(r.URL.Path, "/v1/") {
				rec.add("serve.handler", tc.TraceID(), 0, start, end)
			}
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	c := newHTTPClient()

	ph := &phase{}
	fsync0, err := scrapeCounter(c, base, "dplearn_wal_fsync_total")
	if err != nil {
		return nil, err
	}
	wal0, trace0, count0 := dirBytes(walDir), fileBytes(tracePath), admitted(s)

	var books tally
	books.add(reqs, 0, drive(c, base, reqs, 0, warmup, time.Time{}))
	cache0, err := scrapeRiskCache(c, base)
	if err != nil {
		return nil, err
	}
	ph.timedOuts = driveTimed(c, base, reqs, n, dur)
	cache1, err := scrapeRiskCache(c, base)
	if err != nil {
		return nil, err
	}
	ph.riskEvals = cache1.misses - cache0.misses
	for _, r := range reqs[warmup : warmup+len(ph.timedOuts)] {
		if r.endpoint == "fit" || r.endpoint == "certify" {
			ph.gibbsReqs++
		}
	}
	ph.timed.add(reqs, warmup, ph.timedOuts)
	books.add(reqs, warmup, ph.timedOuts)
	ph.sent = warmup + len(ph.timedOuts)
	ph.spending = books.spending

	fsync1, err := scrapeCounter(c, base, "dplearn_wal_fsync_total")
	if err != nil {
		return nil, err
	}
	ph.fsyncs = fsync1 - fsync0
	ph.walBytes = dirBytes(walDir) - wal0
	ph.traceBytes = fileBytes(tracePath) - trace0
	ph.admitted = admitted(s) - count0

	if books.firstErr != nil {
		ph.gate = append(ph.gate, fmt.Errorf("%d request(s) failed; first: %w", books.failed, books.firstErr))
	}
	tenants := w.tenantIDs()
	bk, err := fetchBooks(c, base, tenants)
	if err != nil {
		ph.gate = append(ph.gate, err)
	}
	c.CloseIdleConnections()
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = srv.Shutdown(ctx)
	cancel()
	if err != nil {
		return nil, err
	}
	<-served
	if err := s.Tenants().CrossCheckAll(); err != nil {
		ph.gate = append(ph.gate, err)
	}
	s.CloseWALs()
	if err := alog.Err(); err != nil {
		return nil, err
	}
	if err := alogFile.Close(); err != nil {
		return nil, err
	}
	if err := rt.Close(nil); err != nil {
		return nil, err
	}
	if bk != nil {
		ph.gate = append(ph.gate, checkWAL(walDir, bk, historyOf(w), books.committed)...)
	}
	if err := checkAccessLog(accessPath, ph.sent+1+len(tenants), reqs[:ph.sent]); err != nil {
		ph.gate = append(ph.gate, err)
	}
	for _, t := range tenants {
		l, recs, err := wal.Open(filepath.Join(walDir, t+".wal"))
		if err != nil {
			return nil, err
		}
		_ = l.Close() // nothing was appended
		for _, r := range recs {
			switch r.Op {
			case wal.OpReserve:
				ph.reserves++
			case wal.OpCommit:
				ph.commits++
			}
		}
	}
	ph.reserves -= w.history
	ph.commits -= w.history
	return ph, nil
}

// admitted is the number of spends the server's accountants hold.
func admitted(s *serve.Server) int {
	n := 0
	for _, t := range s.Tenants().Tenants() {
		n += t.Acct.Count()
	}
	return n
}

func fileBytes(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

func dirBytes(dir string) int64 {
	ents, _ := os.ReadDir(dir) // a missing directory holds nothing
	var n int64
	for _, e := range ents {
		n += fileBytes(filepath.Join(dir, e.Name()))
	}
	return n
}

// runTraced is the per-layer run. Phase (a) drives the stream over HTTP
// to an in-process server twice, with the benchmark's spans off and on,
// and records a client and a serve.handler span per request. Phase (b)
// replays the same requests through each layer's public functions,
// each call a child span of the request's root span. Each pass of (a)
// times half of an untraced run's requests and (b) replays for at most
// half of seconds, so a traced run costs about as much as one and a
// half untraced ones.
func runTraced(w workload, reqs []request, seed int64, seconds int, work, spansPath string) (*result, error) {
	dur := time.Duration(seconds) * time.Second / 2
	n := seconds * w.rate / 2
	template := filepath.Join(work, "history")
	if err := seedHistory(w, seed, template); err != nil {
		return nil, err
	}
	plain, err := httpPhase(w, reqs, n, dur, template, filepath.Join(work, "a-plain"), nil)
	if err != nil {
		return nil, err
	}
	rec := &recorder{t0: time.Now()}
	ph, err := httpPhase(w, reqs, n, dur, template, filepath.Join(work, "a-traced"), rec)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: len(plain.timedOuts) + len(ph.timedOuts), failed: plain.timed.failed + ph.timed.failed}
	res.gate = append(plain.gate, ph.gate...)

	// Client spans of the timed requests; each one's serve.handler span
	// becomes its child.
	clientSpans := make(map[string]span, len(ph.timedOuts))
	for i, o := range ph.timedOuts {
		trace := reqs[warmup+i].tc.TraceID()
		rec.add("client", trace, 0, o.start, o.start.Add(o.lat))
		clientSpans[trace] = rec.spans[len(rec.spans)-1]
	}
	var handlerMS, transportMS []float64
	for i := range rec.spans {
		s := &rec.spans[i]
		c, ok := clientSpans[s.Trace]
		if s.Name != "serve.handler" || !ok {
			continue
		}
		s.Parent = c.ID
		handlerMS = append(handlerMS, float64(s.End-s.Start)/1e6)
		transportMS = append(transportMS, float64((c.End-c.Start)-(s.End-s.Start))/1e6)
	}

	// Phase (b): the same requests, layer by layer.
	rp, err := newReplayer(w, rec, template, filepath.Join(work, "b-wal"), filepath.Join(work, "b-access.ndjson"), filepath.Join(work, "b-trace.ndjson"))
	if err != nil {
		return nil, err
	}
	defer rp.close()
	deadline := time.Now().Add(dur)
	replayed := 0
	for ; replayed < ph.sent && time.Now().Before(deadline); replayed++ {
		if err := rp.replay(reqs[replayed]); err != nil {
			return nil, fmt.Errorf("replay request %d: %w", replayed, err)
		}
	}
	if err := rp.probe(w.rows, seed); err != nil {
		return nil, err
	}

	self := selfTimes(rec.spans)
	byName := make(map[string][]float64)
	layerSum := make(map[int64]int64) // request root id -> summed layer self time
	roots := make(map[int64]string)   // root id -> "request" or "probe"
	for _, s := range rec.spans {
		if s.Name == "request" || s.Name == "probe" {
			roots[s.ID] = s.Name
		}
	}
	for _, s := range rec.spans {
		root, ok := roots[s.Parent]
		if !ok {
			continue
		}
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID]))
		if root == "request" {
			layerSum[s.Parent] += self[s.ID]
		}
	}
	var coverage []float64
	for _, ns := range layerSum {
		coverage = append(coverage, float64(ns)/1e6)
	}
	handlerP50 := median(handlerMS)
	p50 := func(name string, unit float64) float64 { return median(byName[name]) / unit }

	replayMS, err := replayMillis(template, filepath.Join(work, "replay"))
	if err != nil {
		return nil, err
	}
	heap, err := heapPerSpend(heapSpends, filepath.Join(work, "heap-trace.ndjson"))
	if err != nil {
		return nil, err
	}
	if err := rec.write(spansPath); err != nil {
		return nil, err
	}
	plainP50, tracedP50 := median(plain.timed.latMS), median(ph.timed.latMS)
	spending := float64(max(ph.spending, 1))
	fmt.Fprintf(os.Stderr, "servebench: %s seed %d traced: %d+%d requests over HTTP, %d replayed through the layers, %d spans in %s\n",
		w.name, seed, len(plain.timedOuts), len(ph.timedOuts), replayed, len(rec.spans), spansPath)
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "servebench:   %-22s n=%d p50 %.1f us\n", name, len(byName[name]), median(byName[name])/1e3)
	}
	res.metrics = map[string]metric{
		"serve.handler_ms_p50":           {handlerP50, "ms"},
		"serve.handler_ms_p99":           {percentile(handlerMS, 99).Value, "ms"},
		"serve.transport_ms_p50":         {median(transportMS), "ms"},
		"serve.decode_us_p50":            {p50("serve.decode", 1e3), "us"},
		"serve.encode_us_p50":            {p50("serve.encode", 1e3), "us"},
		"serve.admit_ratio":              {float64(ph.admitted) / spending, "ratio"},
		"mechanism.reserve_us_p50":       {p50("mechanism.reserve", 1e3), "us"},
		"mechanism.commit_us_p50":        {p50("mechanism.commit", 1e3), "us"},
		"mechanism.compose_us_p50":       {p50("mechanism.compose", 1e3), "us"},
		"mechanism.heap_bytes_per_spend": {heap, "B"},
		"wal.append_us_p50":              {p50("wal.append", 1e3), "us"},
		"wal.append_us_p99":              {percentile(byName["wal.append"], 99).Value / 1e3, "us"},
		"wal.fsyncs_per_req":             {ph.fsyncs / spending, "count"},
		"wal.bytes_per_req":              {float64(ph.walBytes) / spending, "B"},
		"wal.commit_ratio":               {float64(ph.commits) / float64(max(ph.reserves, 1)), "ratio"},
		"wal.replay_ms":                  {replayMS, "ms"},
		"core.fit_ms_p50":                {p50("core.fit", 1e6), "ms"},
		"core.risk_evals_per_req":        {ph.riskEvals / float64(max(ph.gibbsReqs, 1)), "count"},
		"core.certify_ms_p50":            {p50("core.certify", 1e6), "ms"},
		"core.summary_ms_p50":            {p50("core.summary", 1e6), "ms"},
		"core.density_ms_p50":            {p50("core.density", 1e6), "ms"},
		"learn.select_us_p50":            {p50("learn.select", 1e3), "us"},
		"obs.access_record_us_p50":       {p50("obs.access_record", 1e3), "us"},
		"obs.trace_bytes_per_req":        {float64(ph.traceBytes) / float64(max(ph.sent, 1)), "B"},
		"trace.coverage":                 {median(coverage) / handlerP50, "ratio"},
		"trace.overhead_pct":             {(tracedP50 - plainP50) / plainP50 * 100, "%"},
	}
	return res, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/mechanism"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/wal"
)

// computeLayers names the span of each endpoint's release call.
var computeLayers = map[string]string{
	"fit":     "core.fit",
	"certify": "core.certify",
	"summary": "core.summary",
	"density": "core.density",
	"select":  "learn.select",
}

// replayer calls each layer's public functions for one request, in the
// order the server does, with the state the server would hold: one
// observed accountant per tenant holding its history and one
// write-ahead log per tenant over a copy of it.
type replayer struct {
	rec     *recorder
	learner *core.Learner
	accts   map[string]*mechanism.Accountant
	logs    map[string]*wal.Log
	alog    *obs.AccessLog
	alogF   *os.File
	traceF  *os.File
}

// observedAccountant returns an accountant whose spend observer has the
// shape dplearn-serve wires into each tenant's: the observer runs under
// the accountant's lock, records the spend in a ledger that also writes
// it to the trace stream, and counts the release. The server's
// per-trace and per-charge ε tallies are left out; they are unexported.
func observedAccountant(tracer *obs.Tracer) *mechanism.Accountant {
	a := &mechanism.Accountant{}
	ledger := obs.NewLedger(tracer)
	releases := obs.NewRegistry().Counter("dplearn_serve_tenant_releases_total", "accounted releases")
	a.SetObserver(func(r mechanism.SpendRecord) {
		ledger.Record(obs.LedgerRecord{Seq: r.Seq, Mechanism: r.Meta.Mechanism, Sensitivity: r.Meta.Sensitivity,
			Epsilon: r.Guarantee.Epsilon, Delta: r.Guarantee.Delta, Outcomes: r.Meta.Outcomes,
			Duration: r.Meta.Duration, Span: r.Meta.Span, Trace: r.Meta.Trace})
		releases.Inc()
	})
	return a
}

func newReplayer(w workload, rec *recorder, template, dir string, alogPath, tracePath string) (*replayer, error) {
	if err := copyDir(template, dir); err != nil {
		return nil, err
	}
	grid := learn.NewGrid(-2, 2, dim, 5) // dplearn-serve's default -box and -grid
	// The learner spends on no accountant: phase (b) times admission as
	// its own layer, so core.fit is the learner's compute alone.
	learner, err := core.NewLearner(core.Config{Loss: learn.ZeroOneLoss{}, Thetas: grid.Thetas(), Epsilon: fitEps, Delta: 0.05})
	if err != nil {
		return nil, err
	}
	f, err := os.Create(alogPath)
	if err != nil {
		return nil, err
	}
	tf, err := os.Create(tracePath)
	if err != nil {
		_ = f.Close() // the create error supersedes
		return nil, err
	}
	rp := &replayer{rec: rec, learner: learner, accts: map[string]*mechanism.Accountant{},
		logs: map[string]*wal.Log{}, alog: obs.NewAccessLog(f), alogF: f, traceF: tf}
	tracer := obs.NewTracer(tf, &obs.LogicalClock{})
	for _, t := range w.tenantIDs() {
		a := observedAccountant(tracer)
		if err := a.SetBudget(mechanism.Guarantee{Epsilon: tenantBudget}); err != nil {
			rp.close()
			return nil, err
		}
		l, recs, err := wal.Open(filepath.Join(dir, t+".wal"))
		if err != nil {
			rp.close()
			return nil, err
		}
		for _, ch := range wal.Replay(recs).Charges() {
			a.SpendDetail(mechanism.Guarantee{Epsilon: ch.Epsilon, Delta: ch.Delta},
				mechanism.SpendMeta{Mechanism: ch.Mechanism, Sensitivity: ch.Sensitivity, Outcomes: ch.Outcomes})
		}
		rp.accts[t], rp.logs[t] = a, l
	}
	return rp, nil
}

func (rp *replayer) close() {
	for _, l := range rp.logs {
		_ = l.Close() // scratch logs, discarded with the run
	}
	_ = rp.alogF.Close()  // scratch log, discarded with the run
	_ = rp.traceF.Close() // scratch stream, discarded with the run
}

// replay runs one request through the layers under a root span.
func (rp *replayer) replay(r request) error {
	root := rp.rec.newID()
	start := time.Now()
	err := rp.layers(r, r.tc.TraceID(), root)
	rp.rec.put(span{Name: "request", Trace: r.tc.TraceID(), ID: root}, start, time.Now())
	return err
}

func (rp *replayer) layers(r request, trace string, root int64) error {
	rec := rp.rec
	var err error
	var sel serve.SelectRequest
	var den serve.DensityRequest
	var sum serve.SummaryRequest
	var data serve.DataJSON
	var seed int64
	switch r.endpoint {
	case "fit":
		var v serve.FitRequest
		rec.timed("serve.decode", trace, root, func() { err = json.Unmarshal(r.body, &v) })
		data, seed = v.Data, v.Seed
	case "certify":
		var v serve.CertifyRequest
		rec.timed("serve.decode", trace, root, func() { err = json.Unmarshal(r.body, &v) })
		data = v.Data
	case "select":
		rec.timed("serve.decode", trace, root, func() { err = json.Unmarshal(r.body, &sel) })
		data, seed = sel.Data, sel.Seed
	case "density":
		rec.timed("serve.decode", trace, root, func() { err = json.Unmarshal(r.body, &den) })
		data, seed = den.Data, den.Seed
	case "summary":
		rec.timed("serve.decode", trace, root, func() { err = json.Unmarshal(r.body, &sum) })
		data, seed = sum.Data, sum.Seed
	}
	if err != nil {
		return fmt.Errorf("decode %s: %w", r.endpoint, err)
	}
	d := toDataset(data)

	acct, log := rp.accts[r.tenant], rp.logs[r.tenant]
	var tx *wal.Txn
	var res *mechanism.Reservation
	g := mechanism.Guarantee{Epsilon: r.quoted}
	if r.spending() {
		rec.timed("wal.append", trace, root, func() {
			tx, err = log.Begin(wal.Intent{Endpoint: r.endpoint, Key: r.key, Seed: seed, Epsilon: r.quoted})
		})
		if err != nil {
			return err
		}
		defer tx.Release()
		rec.timed("mechanism.reserve", trace, root, func() { res, err = acct.Reserve(g) })
		if err != nil {
			return err
		}
		defer res.Release()
	}

	var payload any
	rec.timed(computeLayers[r.endpoint], trace, root, func() {
		payload, err = rp.compute(r.endpoint, d, seed, &sel, &den, &sum)
	})
	if err != nil {
		return fmt.Errorf("%s: %w", r.endpoint, err)
	}

	meta := mechanism.SpendMeta{Mechanism: r.endpoint, Trace: trace}
	if r.spending() {
		rec.timed("mechanism.commit", trace, root, func() { res.Commit(meta) })
		rec.timed("mechanism.compose", trace, root, func() { acct.BasicComposition() })
	}
	var buf bytes.Buffer
	rec.timed("serve.encode", trace, root, func() { err = json.NewEncoder(&buf).Encode(payload) })
	if err != nil {
		return err
	}
	if r.spending() {
		rec.timed("wal.append", trace, root, func() {
			err = tx.Commit(meta, wal.Outcome{Status: http.StatusOK, Response: buf.Bytes(),
				Charges: []wal.Charge{{Mechanism: r.endpoint, Epsilon: r.quoted}}})
		})
		if err != nil {
			return err
		}
	}
	rec.timed("obs.access_record", trace, root, func() {
		rp.alog.Record(obs.AccessRecord{Trace: trace, Tenant: r.tenant, Endpoint: r.endpoint, Status: http.StatusOK,
			QuotedEpsilon: r.quoted, SpentEpsilon: r.quoted, Outcome: "committed", IdempotencyKey: r.key})
	})
	return nil
}

// compute is the release itself: the core or learn call the server's
// handler makes, and the wire response built from its result.
func (rp *replayer) compute(endpoint string, d *dataset.Dataset, seed int64, sel *serve.SelectRequest, den *serve.DensityRequest, sum *serve.SummaryRequest) (any, error) {
	ctx := context.Background()
	switch endpoint {
	case "fit":
		fit, err := rp.learner.FitPolicyCtx(ctx, d, rng.New(seed), core.DegradeRefuse)
		if err != nil {
			return nil, err
		}
		return serve.FitResponse{Theta: fit.Theta, Index: fit.Index, Policy: fit.Policy.String(), Certificate: certJSON(fit.Certificate)}, nil
	case "certify":
		cert, err := rp.learner.CertifyCtx(ctx, d)
		if err != nil {
			return nil, err
		}
		return serve.CertifyResponse{Certificate: certJSON(cert)}, nil
	case "select":
		cands := make([]learn.Candidate, len(sel.Candidates))
		for i, c := range sel.Candidates {
			cands[i] = learn.Candidate{Name: c.Name, Theta: c.Theta}
		}
		c, err := learn.PrivateSelect(cands, learn.ZeroOneLoss{}, d, sel.Epsilon, nil, rng.New(seed))
		if err != nil {
			return nil, err
		}
		return serve.SelectResponse{Name: c.Name, Theta: c.Theta, Epsilon: sel.Epsilon}, nil
	case "density":
		est, err := core.PrivateHistogramDensityCtx(ctx, d, den.Feature, den.Bins, den.Lo, den.Hi, den.Epsilon, nil, rng.New(seed))
		if err != nil {
			return nil, err
		}
		return serve.DensityResponse{Lo: est.Lo, Hi: est.Hi, Bins: len(est.Density), Density: est.Density, Epsilon: den.Epsilon}, nil
	default:
		s, err := core.ReleaseSummaryCtx(ctx, d, core.SummaryConfig{Feature: sum.Feature, Lo: sum.Lo, Hi: sum.Hi,
			Bins: sum.Bins, Quantiles: sum.Quantiles, Epsilon: sum.Epsilon}, rng.New(seed))
		if err != nil {
			return nil, err
		}
		qs := make([]serve.QuantilePoint, 0, len(s.Quantiles))
		for p, v := range s.Quantiles {
			qs = append(qs, serve.QuantilePoint{P: p, Value: v})
		}
		sort.Slice(qs, func(i, j int) bool { return qs[i].P < qs[j].P })
		return serve.SummaryResponse{Count: s.Count, Mean: s.Mean, Quantiles: qs, Histogram: s.Histogram,
			Lo: s.Lo, Hi: s.Hi, Epsilon: sum.Epsilon}, nil
	}
}

func certJSON(c core.Certificate) serve.CertificateJSON {
	return serve.CertificateJSON{Epsilon: c.Privacy.Epsilon, Delta: c.Privacy.Delta, Lambda: c.Lambda,
		RiskBound: c.RiskBound, Confidence: c.Delta, ExpEmpRisk: c.ExpEmpRisk, KL: c.KL}
}

func toDataset(dj serve.DataJSON) *dataset.Dataset {
	d := &dataset.Dataset{Examples: make([]dataset.Example, len(dj.X))}
	for i, row := range dj.X {
		var y float64
		if len(dj.Y) != 0 {
			y = dj.Y[i]
		}
		d.Examples[i] = dataset.Example{X: row, Y: y}
	}
	return d
}

// heapPerSpend is the heap that stays live per committed spend on a
// tenant's books: an observedAccountant whose trace stream goes to a
// scratch file at tracePath.
func heapPerSpend(n int, tracePath string) (float64, error) {
	f, err := os.Create(tracePath)
	if err != nil {
		return 0, err
	}
	a := observedAccountant(obs.NewTracer(f, &obs.LogicalClock{}))
	trace := obs.DeriveTraceContext(1).TraceID()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		a.SpendDetail(mechanism.Guarantee{Epsilon: reqEps}, mechanism.SpendMeta{Mechanism: "summary", Outcomes: summaryBins, Trace: trace})
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(a)
	return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(n), f.Close()
}

// replayMillis times wal.Open plus wal.Replay of every log in a copy of
// the seeded history, as boot recovery reads it (median of 3).
func replayMillis(template, dir string) (float64, error) {
	var ms []float64
	for i := 0; i < 3; i++ {
		d := filepath.Join(dir, strconv.Itoa(i))
		if err := copyDir(template, d); err != nil {
			return 0, err
		}
		ents, err := os.ReadDir(d)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for _, e := range ents {
			l, recs, err := wal.Open(filepath.Join(d, e.Name()))
			if err != nil {
				return 0, err
			}
			wal.Replay(recs)
			_ = l.Close() // nothing was appended
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return median(ms), nil
}

// probes is how many calls time a release layer that the workload's
// mix never calls, on the workload's own datasets.
const probes = 20

// heapSpends is how many spends heapPerSpend books.
const heapSpends = 20000

// probe times each release layer the workload's mix never calls, under
// a "probe" root span per call, so every layer metric has samples on
// every workload. Each call gets a fresh dataset of the workload's size
// drawn from seed, so no call finds its risks in the learner's cache.
func (rp *replayer) probe(rows int, seed int64) error {
	seen := make(map[string]bool)
	for _, s := range rp.rec.spans {
		seen[s.Name] = true
	}
	g := rng.New(seed ^ 0x9b0be)
	sel := &serve.SelectRequest{Epsilon: reqEps, Candidates: []serve.CandidateJSON{
		{Name: "cand-0", Theta: []float64{0.5, -0.5}}, {Name: "cand-1", Theta: []float64{-0.5, 0.5}}, {Name: "cand-2", Theta: []float64{1, 1}}}}
	den := &serve.DensityRequest{Feature: 0, Lo: -1, Hi: 1, Epsilon: reqEps, Bins: densityBins}
	sum := &serve.SummaryRequest{Feature: 0, Lo: -1, Hi: 1, Bins: summaryBins, Quantiles: []float64{0.25, 0.5, 0.75}, Epsilon: reqEps}
	for _, endpoint := range []string{"fit", "certify", "select", "density", "summary"} {
		layer := computeLayers[endpoint]
		if seen[layer] {
			continue
		}
		for i := 0; i < probes; i++ {
			d := toDataset(synthData(g, rows))
			root := rp.rec.newID()
			start := time.Now()
			var err error
			rp.rec.timed(layer, "", root, func() { _, err = rp.compute(endpoint, d, int64(i+1), sel, den, sum) })
			rp.rec.put(span{Name: "probe", ID: root}, start, time.Now())
			if err != nil {
				return fmt.Errorf("probe %s: %w", layer, err)
			}
		}
	}
	return nil
}

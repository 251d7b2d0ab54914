package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/mechanism"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/wal"
)

const (
	// dim is the feature dimension; dplearn-serve's default -dim.
	dim = 2
	// reqEps is the ε each select/density/summary request quotes.
	reqEps = 0.02
	// fitEps is the ε of one fit: dplearn-serve's default -eps.
	fitEps = 0.5
	// tenantBudget is large enough that no workload is ever refused.
	tenantBudget = 1e9
	// densityBins and summaryBins shape the density and summary releases.
	densityBins = 8
	summaryBins = 8
)

// workload is one traffic mix. The stream cycles through pool distinct
// request bodies; every request still carries its own Idempotency-Key
// and trace id, so each one is a fresh release.
type workload struct {
	name string
	// tenants are addressed round-robin (tenant i%tenants).
	tenants int
	// rows per synthetic dataset.
	rows int
	mix  []mixEntry
	// history is the number of committed spends pre-seeded into tenant
	// t00's write-ahead log before the server boots.
	history int
	// pool is the number of distinct bodies; a multiple of tenants whose
	// shares of the mix weights are whole.
	pool int
	// rate is the number of requests timed per second of --seconds, a
	// little below what two clients reach on the reference host. A run
	// times a fixed count of requests, not a fixed span of wall time:
	// every spend grows the tenant's books, so a faster server would
	// otherwise measure itself over a longer history.
	rate int
}

type mixEntry struct {
	endpoint string
	weight   float64
}

var spendMix = []mixEntry{{"fit", 1}, {"select", 1}, {"density", 1}, {"summary", 1}}

// workloads are the benchmark's traffic mixes; BENCHMARK.json and
// README.md give the reason for each. compute-wide's pool holds 384
// certify datasets, six times what a learner's risk cache keeps
// (gibbs.RiskCache holds 64), so a certify evaluates the risk grid
// rather than finding it cached.
var workloads = []workload{
	{name: "spend-history", tenants: 1, rows: 24, mix: spendMix, history: 10000, pool: 2048, rate: 250},
	{name: "compute-wide", tenants: 1, rows: 2000, pool: 512, rate: 400,
		mix: []mixEntry{{"certify", 6}, {"summary", 1}, {"density", 1}}},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) tenantIDs() []string {
	ids := make([]string, w.tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%02d", i)
	}
	return ids
}

// tenantDecl is the -tenants declaration of dplearn-serve.
func (w workload) tenantDecl() string {
	decl := ""
	for i, id := range w.tenantIDs() {
		if i > 0 {
			decl += ","
		}
		decl += fmt.Sprintf("%s=%g", id, float64(tenantBudget))
	}
	return decl
}

// request is one pre-generated unit of load.
type request struct {
	endpoint string
	tenant   string
	body     []byte
	// key is the Idempotency-Key of a spending request ("" for the free
	// certify).
	key    string
	tc     obs.TraceContext
	quoted float64
}

func (r request) spending() bool { return r.endpoint != "certify" }

// generate builds the first n requests of the workload's stream from
// seed. Nothing in it depends on the clock, so a seed always yields
// the same bytes.
func generate(w workload, seed int64, n int) ([]request, error) {
	master := rng.New(seed)
	ids := w.tenantIDs()
	// The pool holds each endpoint in proportion to its weight, in a
	// seeded order, so every seed runs the same mix.
	var total float64
	for _, m := range w.mix {
		total += m.weight
	}
	var endpoints []string
	for _, m := range w.mix {
		for k := 0; k < int(math.Round(m.weight/total*float64(w.pool))); k++ {
			endpoints = append(endpoints, m.endpoint)
		}
	}
	master.Shuffle(len(endpoints), func(i, j int) { endpoints[i], endpoints[j] = endpoints[j], endpoints[i] })
	pool := make([]request, len(endpoints))
	for p, endpoint := range endpoints {
		tenant := ids[p%len(ids)]
		reqSeed := master.SplitSeed()
		data := synthData(rng.New(reqSeed), w.rows)
		var payload any
		quoted := reqEps
		switch endpoint {
		case "fit":
			payload = serve.FitRequest{Tenant: tenant, Seed: reqSeed, Data: data}
			quoted = fitEps
		case "certify":
			payload = serve.CertifyRequest{Tenant: tenant, Data: data}
			quoted = 0
		case "select":
			g := rng.New(reqSeed)
			cands := make([]serve.CandidateJSON, 3)
			for c := range cands {
				cands[c] = serve.CandidateJSON{Name: fmt.Sprintf("cand-%d", c), Theta: []float64{g.Uniform(-1, 1), g.Uniform(-1, 1)}}
			}
			payload = serve.SelectRequest{Tenant: tenant, Seed: reqSeed, Epsilon: reqEps, Candidates: cands, Data: data}
		case "density":
			payload = serve.DensityRequest{Tenant: tenant, Seed: reqSeed, Feature: 0, Lo: -1, Hi: 1, Epsilon: reqEps, Bins: densityBins, Data: data}
		case "summary":
			payload = serve.SummaryRequest{Tenant: tenant, Seed: reqSeed, Feature: 0, Lo: -1, Hi: 1, Bins: summaryBins,
				Quantiles: []float64{0.25, 0.5, 0.75}, Epsilon: reqEps, Data: data}
		default:
			return nil, fmt.Errorf("workload %s: unknown endpoint %q", w.name, endpoint)
		}
		body, err := json.Marshal(payload)
		if err != nil {
			return nil, fmt.Errorf("encode %s request: %w", endpoint, err)
		}
		pool[p] = request{endpoint: endpoint, tenant: tenant, body: body, quoted: quoted}
	}
	reqs := make([]request, n)
	for i := range reqs {
		r := pool[i%len(pool)]
		if r.spending() {
			r.key = fmt.Sprintf("r%d-%d", seed, i)
		}
		r.tc = obs.DeriveTraceContext(master.SplitSeed())
		reqs[i] = r
	}
	return reqs, nil
}

// digest hashes everything the server receives from a stream.
func digest(reqs []request) [32]byte {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%d\n", r.endpoint, r.key, r.tc.Traceparent(), r.body, len(r.body))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// synthData draws a labeled dataset with features in [-1, 1], as
// dplearn-loadgen does.
func synthData(g *rng.RNG, rows int) serve.DataJSON {
	d := serve.DataJSON{X: make([][]float64, rows), Y: make([]float64, rows)}
	for i := range d.X {
		d.X[i] = []float64{g.Uniform(-1, 1), g.Uniform(-1, 1)}
		d.Y[i] = -1
		if g.Bernoulli(0.5) {
			d.Y[i] = 1
		}
	}
	return d
}

// seedHistory creates dir and writes the workload's history, w.history
// committed spends, into tenant t00's write-ahead log there, through
// the WAL's own transaction API, so the records have whatever format
// the code under test writes. Each commit carries one charge and a
// response body shaped like the endpoint's, under an Idempotency-Key
// ("h<seed>-<i>") that no request of the stream uses.
func seedHistory(w workload, seed int64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil || w.history == 0 {
		return err
	}
	n := w.history
	l, _, err := wal.Open(filepath.Join(dir, w.tenantIDs()[0]+".wal"))
	if err != nil {
		return err
	}
	g := rng.New(seed ^ 0x5eed)
	for i := 0; i < n; i++ {
		endpoint := spendMix[g.Intn(len(spendMix))].endpoint
		charge, resp := historyEntry(endpoint, g)
		body, err := json.Marshal(resp)
		if err != nil {
			_ = l.Close() // the encode error supersedes
			return fmt.Errorf("history: encode: %w", err)
		}
		tx, err := l.Begin(wal.Intent{Endpoint: endpoint, Key: fmt.Sprintf("h%d-%d", seed, i), Seed: g.SplitSeed(), Epsilon: charge.Epsilon})
		if err != nil {
			_ = l.Close() // the append error supersedes
			return fmt.Errorf("history: %w", err)
		}
		if err := tx.Commit(mechanism.SpendMeta{}, wal.Outcome{Status: 200, Response: append(body, '\n'), Charges: []wal.Charge{charge}}); err != nil {
			_ = l.Close() // the append error supersedes
			return fmt.Errorf("history: %w", err)
		}
	}
	return l.Close()
}

// historyEntry draws one past release: its charge as the server would
// have logged it and a response of the endpoint's wire type.
func historyEntry(endpoint string, g *rng.RNG) (wal.Charge, any) {
	vec := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = g.Uniform(0, 1)
		}
		return v
	}
	eps := reqEps * (0.5 + g.Float64())
	switch endpoint {
	case "fit":
		return wal.Charge{Mechanism: "gibbs", Sensitivity: 1.0 / 24, Outcomes: 25, Epsilon: fitEps},
			serve.FitResponse{Theta: vec(dim), Index: g.Intn(25), Policy: "refuse",
				Certificate: serve.CertificateJSON{Epsilon: fitEps, Lambda: 12, RiskBound: g.Float64(), Confidence: 0.05, ExpEmpRisk: g.Float64(), KL: g.Float64()}}
	case "select":
		return wal.Charge{Mechanism: "select", Sensitivity: 1.0 / 24, Outcomes: 3, Epsilon: eps},
			serve.SelectResponse{Name: "cand-1", Theta: vec(dim), Epsilon: eps}
	case "density":
		return wal.Charge{Mechanism: "laplace", Sensitivity: 2.0 / 24, Outcomes: densityBins, Epsilon: eps},
			serve.DensityResponse{Lo: -1, Hi: 1, Bins: densityBins, Density: vec(densityBins), Epsilon: eps}
	default:
		return wal.Charge{Mechanism: "summary", Outcomes: summaryBins, Epsilon: eps},
			serve.SummaryResponse{Count: 24, Mean: g.Float64(), Histogram: vec(summaryBins), Lo: -1, Hi: 1, Epsilon: eps,
				Quantiles: []serve.QuantilePoint{{P: 0.25, Value: -0.5}, {P: 0.5, Value: 0}, {P: 0.75, Value: 0.5}}}
	}
}

// copyDir copies the regular files of src into dst (created).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

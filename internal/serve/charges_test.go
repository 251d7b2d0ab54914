package serve

import (
	"bytes"
	"net/http"
	"sync"
	"testing"

	"repro/internal/mechanism"
	"repro/internal/obs"
)

// readAccess parses the access-log buffer into records in write order.
func readAccess(t *testing.T, buf *bytes.Buffer) []obs.AccessRecord {
	t.Helper()
	tr, err := obs.ReadTraceNDJSON(buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Access
}

// composedEpsilon is the canonical composition of a run of ledger
// records.
func composedEpsilon(recs []obs.LedgerRecord) float64 {
	eps := make([]float64, len(recs))
	del := make([]float64, len(recs))
	for i, r := range recs {
		eps[i], del[i] = r.Epsilon, r.Delta
	}
	e, _ := obs.ComposeBasic(eps, del)
	return e
}

// tracedObserver returns a test observer whose trace stream, carrying
// every tenant's ledger lines, is written to buf.
func tracedObserver(buf *bytes.Buffer) *obs.Observer {
	clock := &obs.LogicalClock{}
	return &obs.Observer{Tracer: obs.NewTracer(buf, clock), Metrics: obs.NewRegistry(), Clock: clock}
}

// drainLedger consumes the trace stream written so far and returns its
// ledger lines in commit order.
func drainLedger(t *testing.T, buf *bytes.Buffer) []obs.LedgerRecord {
	t.Helper()
	tr, err := obs.ReadTraceNDJSON(buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Ledger
}

// TestUntracedAccessReportsExactCharges pins that spent_epsilon is the
// accountant's own number for requests without a traceparent: a widened
// fit reports the remaining headroom it charged, and a Gibbs density
// reports its recalibrated guarantee, whose low bits differ from the
// quoted ε — each bit-equal to the ledger charges the request committed.
func TestUntracedAccessReportsExactCharges(t *testing.T) {
	var accessBuf, traceBuf bytes.Buffer
	_, ts := newTestService(t, Config{
		Tenants: []TenantConfig{
			{ID: "gibbs", Budget: mechanism.Guarantee{Epsilon: 1}},
			{ID: "solo", Budget: mechanism.Guarantee{Epsilon: 1}},
		},
		Learner:   LearnerSpec{Epsilon: 0.8},
		Observer:  tracedObserver(&traceBuf),
		AccessLog: obs.NewAccessLog(&accessBuf),
	})
	data := testData(13, 16, 2)
	steps := []struct {
		tenant string
		path   string
		body   any
	}{
		{"solo", "/v1/fit", FitRequest{Tenant: "solo", Seed: 1, Data: data}},
		{"solo", "/v1/fit", FitRequest{Tenant: "solo", Seed: 2, Degrade: "widen", Data: data}},
		// (clip+ln2)/16 round-trips ε=0.09 to 0.09000000000000001.
		{"gibbs", "/v1/density", DensityRequest{Tenant: "gibbs", Seed: 3, Kind: "gibbs", Feature: 0, Lo: -1, Hi: 1,
			Epsilon: 0.09, BinChoices: []int{4, 8}, Clip: 4, Data: data}},
	}
	var want [][]obs.LedgerRecord
	for i, st := range steps {
		resp, body := postJSON(t, ts.URL+st.path, st.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d (%s): HTTP %d: %s", i, st.path, resp.StatusCode, body)
		}
		recs := drainLedger(t, &traceBuf)
		if len(recs) != 1 {
			t.Fatalf("step %d: %d ledger charge(s), want 1", i, len(recs))
		}
		want = append(want, recs)
	}
	if widened := want[1][0].Epsilon; widened <= 0 || widened >= 0.8 {
		t.Fatalf("widened fit charged ε=%.17g, want the remaining headroom", widened)
	}
	//dplint:ignore floateq the fixture must exercise a charge whose low bits differ from the quote
	if g := want[2][0].Epsilon; g == 0.09 {
		t.Fatalf("Gibbs density charged exactly its quote; the fixture no longer exercises recalibration")
	}
	access := readAccess(t, &accessBuf)
	if len(access) != len(steps) {
		t.Fatalf("access log has %d records, want %d", len(access), len(steps))
	}
	for i, ar := range access {
		//dplint:ignore floateq spent_epsilon must be the ledger's composition bit for bit
		if got, exp := ar.SpentEpsilon, composedEpsilon(want[i]); got != exp {
			t.Errorf("step %d (%s): spent_epsilon %.17g, ledger charges compose to %.17g", i, ar.Endpoint, got, exp)
		}
	}
}

// TestSameTraceAttributesPerRequest runs two requests under one
// traceparent, as a client retry does: A (a widened fit) is parked in
// flight while B (a Gibbs density) runs to completion, then A finishes.
// Each access record must report exactly its own committed charge — no
// request may pick up the other's ε or fall back to an estimate.
func TestSameTraceAttributesPerRequest(t *testing.T) {
	var accessBuf, traceBuf bytes.Buffer
	s, ts := newTestService(t, Config{
		Tenants:   []TenantConfig{{ID: "solo", Budget: mechanism.Guarantee{Epsilon: 1}}},
		Learner:   LearnerSpec{Epsilon: 0.8},
		Observer:  tracedObserver(&traceBuf),
		AccessLog: obs.NewAccessLog(&accessBuf),
	})
	data := testData(13, 16, 2)
	if resp, body := postJSON(t, ts.URL+"/v1/fit", FitRequest{Tenant: "solo", Seed: 1, Data: data}); resp.StatusCode != http.StatusOK {
		t.Fatalf("first fit: HTTP %d: %s", resp.StatusCode, body)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookInFlight = func(endpoint string) {
		if endpoint != "fit" {
			return
		}
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	tc := obs.DeriveTraceContext(77)
	done := make(chan int, 1)
	go func() {
		resp, _ := postTraced(t, ts.URL+"/v1/fit", tc, FitRequest{Tenant: "solo", Seed: 2, Degrade: "widen", Data: data})
		done <- resp.StatusCode
	}()
	<-entered
	resp, body := postTraced(t, ts.URL+"/v1/density", tc, DensityRequest{Tenant: "solo", Seed: 3, Kind: "gibbs",
		Feature: 0, Lo: -1, Hi: 1, Epsilon: 0.09, BinChoices: []int{4, 8}, Clip: 4, Data: data})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request B: HTTP %d: %s", resp.StatusCode, body)
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("request A: HTTP %d", code)
	}

	tn, _ := s.Tenants().Get("solo")
	charged := map[string]float64{} // endpoint → ε of its one ledger charge under tc
	for _, r := range drainLedger(t, &traceBuf) {
		if r.Trace != tc.TraceID() {
			continue
		}
		endpoint := map[string]string{"gibbs": "fit", "expmech": "density"}[r.Mechanism]
		if _, dup := charged[endpoint]; dup || endpoint == "" {
			t.Fatalf("unexpected charge under the shared trace: %+v", r)
		}
		charged[endpoint] = r.Epsilon
	}
	access := readAccess(t, &accessBuf)
	if len(access) != 3 {
		t.Fatalf("access log has %d records, want 3", len(access))
	}
	for _, ar := range access[1:] {
		want, ok := charged[ar.Endpoint]
		if ar.Trace != tc.TraceID() || !ok {
			t.Fatalf("access record %+v: want the shared trace and one ledger charge", ar)
		}
		//dplint:ignore floateq each request must report its own charge bit for bit
		if ar.SpentEpsilon != want {
			t.Errorf("%s: spent_epsilon %.17g, its ledger charge is %.17g", ar.Endpoint, ar.SpentEpsilon, want)
		}
	}
	checkBooks(t, tn)
}

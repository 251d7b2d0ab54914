package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wal"
)

// fetchBooks runs the live half of the correctness gate: the server's
// own ledger cross-check must be clean, and each tenant's budget status
// is read back for the offline half. It issues 1+len(tenants) /v1
// requests.
func fetchBooks(c *http.Client, base string, tenants []string) (map[string]serve.BudgetStatus, error) {
	if err := getJSON(c, base, "/v1/crosscheck", nil); err != nil {
		return nil, fmt.Errorf("crosscheck: %w", err)
	}
	books := make(map[string]serve.BudgetStatus, len(tenants))
	for _, t := range tenants {
		var b serve.BudgetStatus
		if err := getJSON(c, base, "/v1/budget?tenant="+t, &b); err != nil {
			return nil, err
		}
		books[t] = b
	}
	return books, nil
}

// checkWAL runs the offline half of the gate once the server has let go
// of its logs: per tenant, the spent ε the server reported must equal,
// bit for bit, obs.ComposeBasic over the charges replayed from the WAL,
// and the charge count must be the seeded history plus the committed
// spending requests.
func checkWAL(walDir string, books map[string]serve.BudgetStatus, history, committed map[string]int) []error {
	var errs []error
	for t, b := range books {
		l, recs, err := wal.Open(filepath.Join(walDir, t+".wal"))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		_ = l.Close() // opened read-only in effect; nothing was appended
		st := wal.Replay(recs)
		charges := st.Charges()
		eps := make([]float64, len(charges))
		del := make([]float64, len(charges))
		for i, c := range charges {
			eps[i], del[i] = c.Epsilon, c.Delta
		}
		ce, _ := obs.ComposeBasic(eps, del)
		if math.Float64bits(ce) != math.Float64bits(b.SpentEpsilon) {
			errs = append(errs, fmt.Errorf("tenant %s: /v1/budget spent_epsilon %.17g, WAL charges compose to %.17g", t, b.SpentEpsilon, ce))
		}
		if want := history[t] + committed[t]; len(charges) != want || b.Releases != want {
			errs = append(errs, fmt.Errorf("tenant %s: WAL holds %d charges and the server %d releases, want %d history + %d committed",
				t, len(charges), b.Releases, history[t], committed[t]))
		}
		if len(st.Unsettled) != 0 {
			errs = append(errs, fmt.Errorf("tenant %s: %d reserve(s) left unsettled", t, len(st.Unsettled)))
		}
	}
	return errs
}

// checkAccessLog verifies that the access log holds exactly want
// records, and exactly one for each stream request's trace id.
func checkAccessLog(path string, want int, reqs []request) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("access log: %w", err)
	}
	defer f.Close()
	perTrace := make(map[string]int)
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var rec struct {
			Type  string `json:"type"`
			Trace string `json:"trace"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("access log line %d: %w", n+1, err)
		}
		if rec.Type == "access" {
			n++
			perTrace[rec.Trace]++
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("access log: %w", err)
	}
	if n != want {
		return fmt.Errorf("access log holds %d records, want one per /v1 request (%d)", n, want)
	}
	for _, r := range reqs {
		if c := perTrace[r.tc.TraceID()]; c != 1 {
			return fmt.Errorf("access log holds %d records for trace %s (%s %s), want 1", c, r.tc.TraceID(), r.endpoint, r.key)
		}
	}
	return nil
}

// historyOf is the seeded committed-spend count per tenant.
func historyOf(w workload) map[string]int {
	h := make(map[string]int)
	if w.history > 0 {
		h[w.tenantIDs()[0]] = w.history
	}
	return h
}

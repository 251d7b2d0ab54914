package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// clients is the closed loop's size: each client sends its next request
// only once the previous reply is complete.
const clients = 2

// outcome is one request as the client saw it.
type outcome struct {
	start time.Time
	// lat runs from just before the request is sent to the last byte of
	// the response body.
	lat    time.Duration
	status int
	// err is non-nil when the request failed: transport error, non-2xx,
	// or a response that failed its check.
	err error
}

// newHTTPClient returns a keep-alive client that sends every request
// exactly once: net/http never retries a POST with a body, and nothing
// here sleeps on Retry-After.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// drive sends reqs[from:to] through a closed loop of clients against
// base, stopping early once deadline (if non-zero) has passed. It
// returns the outcomes of reqs[from:from+len(outs)], every one of which
// completed.
func drive(c *http.Client, base string, reqs []request, from, to int, deadline time.Time) []outcome {
	outs := make([]outcome, to-from)
	var next atomic.Int64
	next.Store(int64(from))
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				outs[i-from] = send(c, base, reqs[i])
				claimed.Add(1)
			}
		}()
	}
	wg.Wait()
	// Claims are handed out in order and each claimed request completes,
	// so the finished ones are exactly the first claimed.Load().
	return outs[:claimed.Load()]
}

// maxStretch bounds a timed phase at maxStretch times its nominal
// length, so that a host too slow for the phase's fixed request count
// still ends the run in time.
const maxStretch = 2

// driveTimed sends the n requests that follow the warm-up through the
// closed loop, stopping early only once maxStretch×nominal has passed.
func driveTimed(c *http.Client, base string, reqs []request, n int, nominal time.Duration) []outcome {
	limit := maxStretch * nominal
	outs := drive(c, base, reqs, warmup, warmup+n, time.Now().Add(limit))
	if len(outs) < n {
		fmt.Fprintf(os.Stderr, "servebench: only %d of the %d timed requests completed within %v\n", len(outs), n, limit)
	}
	return outs
}

// send issues one request once and checks its response.
func send(c *http.Client, base string, r request) outcome {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/"+r.endpoint, bytes.NewReader(r.body))
	if err != nil {
		return outcome{start: time.Now(), err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Traceparent", r.tc.Traceparent())
	if r.key != "" {
		req.Header.Set("Idempotency-Key", r.key)
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return outcome{start: start, lat: time.Since(start), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return outcome{start: start, lat: lat, err: err}
	}
	return outcome{start: start, lat: lat, status: resp.StatusCode, err: checkResponse(r, resp, body)}
}

// checkResponse decodes a reply into its serve response type and checks
// what the request fixes about it.
func checkResponse(r request, resp *http.Response, body []byte) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", r.endpoint, r.key, resp.StatusCode, bytes.TrimSpace(body))
	}
	if resp.Header.Get("Idempotency-Replayed") != "" {
		return fmt.Errorf("%s %s: served as an idempotent replay", r.endpoint, r.key)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	// An echoed ε must equal the quoted one exactly.
	var bad string
	switch r.endpoint {
	case "fit":
		var v serve.FitResponse
		if err := dec.Decode(&v); err != nil {
			return fmt.Errorf("fit: %w", err)
		}
		if len(v.Theta) != dim || v.Degraded || v.Certificate.Epsilon <= 0 {
			bad = fmt.Sprintf("theta %v, degraded %v, certificate ε %v", v.Theta, v.Degraded, v.Certificate.Epsilon)
		}
	case "certify":
		var v serve.CertifyResponse
		if err := dec.Decode(&v); err != nil {
			return fmt.Errorf("certify: %w", err)
		}
		if !(v.Certificate.Epsilon > 0) || math.IsNaN(v.Certificate.RiskBound) {
			bad = fmt.Sprintf("certificate %+v", v.Certificate)
		}
	case "select":
		var v serve.SelectResponse
		if err := dec.Decode(&v); err != nil {
			return fmt.Errorf("select: %w", err)
		}
		if v.Name == "" || len(v.Theta) != dim || v.Epsilon != r.quoted {
			bad = fmt.Sprintf("%+v", v)
		}
	case "density":
		var v serve.DensityResponse
		if err := dec.Decode(&v); err != nil {
			return fmt.Errorf("density: %w", err)
		}
		if v.Bins != densityBins || len(v.Density) != densityBins || v.Epsilon != r.quoted {
			bad = fmt.Sprintf("%+v", v)
		}
	case "summary":
		var v serve.SummaryResponse
		if err := dec.Decode(&v); err != nil {
			return fmt.Errorf("summary: %w", err)
		}
		if len(v.Quantiles) != 3 || len(v.Histogram) != summaryBins || v.Epsilon != r.quoted {
			bad = fmt.Sprintf("%+v", v)
		}
	}
	if bad != "" {
		return fmt.Errorf("%s %s: unexpected response: %s", r.endpoint, r.key, bad)
	}
	return nil
}

// getJSON fetches base+path and decodes a 200 reply into v.
func getJSON(c *http.Client, base, path string, v any) error {
	resp, err := c.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// scrapeCounter sums every series of a counter family on /metrics.
func scrapeCounter(c *http.Client, base, name string) (float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var sum float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+"{") && !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		sum += v
	}
	return sum, sc.Err()
}

// riskCache is the learners' risk-vector cache counters on /metrics.
type riskCache struct{ hits, misses float64 }

func scrapeRiskCache(c *http.Client, base string) (riskCache, error) {
	hits, err := scrapeCounter(c, base, "dplearn_risk_cache_hits_total")
	if err != nil {
		return riskCache{}, err
	}
	misses, err := scrapeCounter(c, base, "dplearn_risk_cache_misses_total")
	return riskCache{hits, misses}, err
}

// tally summarises outcomes: latencies in ms, failures, and the
// committed spending requests per tenant.
type tally struct {
	latMS     []float64
	failed    int
	firstErr  error
	committed map[string]int
	spending  int
}

func (t *tally) add(reqs []request, from int, outs []outcome) {
	if t.committed == nil {
		t.committed = make(map[string]int)
	}
	for i, o := range outs {
		r := reqs[from+i]
		t.latMS = append(t.latMS, float64(o.lat)/1e6)
		if r.spending() {
			t.spending++
		}
		if o.err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = o.err
			}
		}
		if r.spending() && o.status == http.StatusOK {
			t.committed[r.tenant]++
		}
	}
}

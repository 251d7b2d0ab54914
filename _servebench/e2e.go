package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Before each segment the server is booted at least minBoots times, and
// on until the boots have taken bootTime or maxBoots is reached (see
// bootTimes). Spreading the boots over the run keeps a minute when the
// host is slow from deciding setup_s.
const (
	minBoots = 2
	maxBoots = 9
	bootTime = 150 * time.Millisecond
)

// warmup is the number of requests sent before timing starts.
const warmup = 200

// serverProc is one running dplearn-serve process.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startServer execs dplearn-serve with args on a free loopback port and
// returns once /healthz first answers 200, with the time that took.
func startServer(c *http.Client, bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { p.done <- cmd.Wait() }()
	for {
		select {
		case err := <-p.done:
			return nil, 0, fmt.Errorf("dplearn-serve exited during boot (%v); see %s", err, logPath)
		default:
		}
		if resp, err := c.Get(p.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			p.kill()
			return nil, 0, fmt.Errorf("dplearn-serve not healthy after 60s; see %s", logPath)
		}
		// Polling more often makes the poller compete with the boot for
		// the CPU, which spreads the measured boot times.
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit. Drain
// audits every tenant's books, so a non-zero exit is a gate failure.
func (p *serverProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-p.done:
		if err != nil {
			return fmt.Errorf("dplearn-serve drain: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		p.kill()
		return errors.New("dplearn-serve did not drain within 60s")
	}
}

// kill ends the server without a drain and waits for it.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // it may have exited already
	<-p.done
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100
	// on Linux).
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM returns a process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// result is what one run reports.
type result struct {
	metrics   map[string]metric
	attempted int
	failed    int
	gate      []error
}

// The timed phase is driven as segments: each boots a fresh server over
// a copy of the seeded history, sends it the warm-up and the same
// seconds×rate/segments timed requests, and is audited by the gate on
// its own. Every segment is thus the same workload, run on a host whose
// speed varies. The figures are the medians over the segments that
// served their requests fastest: a neighbour on the host can take a
// fifth of the CPU time for seconds at a time, or slow this machine
// down without the hypervisor counting any time as stolen, and a
// segment measured then says more about the neighbour than about the
// program. A change to the program moves every segment, so it moves
// the fastest ones too.
const (
	// segments is the number of segments the figures come from.
	segments = 5
	// minSegments is the number of segments every run drives, so that
	// the figures can leave out the slowest minSegments-segments.
	minSegments = 7
	// maxStolen is the share of the machine's CPU time the hypervisor
	// may take during a segment for it to count as quiet. Beyond
	// minSegments, segments run until segments quiet ones have been
	// measured, or until they have taken maxStretch times --seconds.
	maxStolen = 0.03
)

// runE2E measures the end-to-end metrics against the dplearn-serve
// binary at bin, with the benchmark's own tracing off.
func runE2E(w workload, reqs []request, seed int64, seconds int, bin, work string) (*result, error) {
	template := filepath.Join(work, "history")
	if err := seedHistory(w, seed, template); err != nil {
		return nil, err
	}
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	// Collect the stream's garbage now, so the benchmark's own GC does
	// not compete with the boots for CPU.
	runtime.GC()

	res := &result{}
	var setups []float64
	stream := reqs[:warmup+seconds*w.rate/segments]
	budget := maxStretch * time.Duration(seconds) * time.Second
	var segs []segment
	var timedFor time.Duration
	var hits, misses float64
	for quiet := 0; len(segs) < minSegments || (quiet < segments && timedFor < budget); {
		boots, err := bootTimes(c, w, bin, template, filepath.Join(work, "boot"))
		if err != nil {
			return nil, err
		}
		setups = append(setups, boots...)
		seg, err := runSegment(c, w, bin, stream, template, filepath.Join(work, fmt.Sprintf("segment-%d", len(segs)+1)))
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
		timedFor += seg.elapsed
		res.attempted += seg.p99.N
		res.failed += seg.failed
		res.gate = append(res.gate, seg.gate...)
		hits, misses = hits+seg.hits, misses+seg.misses
		if seg.stolen <= maxStolen {
			quiet++
		}
		fmt.Fprintf(os.Stderr, "servebench:   segment %d: %d requests, %.2f rps, p50 %.4f ms, p99 %.4f ms (%d beyond), %.4f ms CPU/req, %.2f MiB, hypervisor took %.1f%% of the CPU time\n",
			len(segs), seg.p99.N, seg.rps, seg.p50, seg.p99.Value, seg.p99.Beyond, seg.cpuMS, seg.rssMB, 100*seg.stolen)
	}
	kept := fastest(segs, segments)
	fmt.Fprintf(os.Stderr, "servebench: %s seed %d: figures are medians over the %d fastest of %d segments; error_rate %.6g (%d of %d); setup median of %d boots\n",
		w.name, seed, len(kept), len(segs), float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted, len(setups))
	fmt.Fprintf(os.Stderr, "servebench: risk cache during the timed requests: %g hits, %g misses (hit rate %.4g)\n",
		hits, misses, hits/math.Max(hits+misses, 1))
	res.metrics = map[string]metric{
		"throughput_rps":        {segMedian(kept, func(s segment) float64 { return s.rps }), "1/s"},
		"latency_p50_ms":        {segMedian(kept, func(s segment) float64 { return s.p50 }), "ms"},
		"latency_p99_ms":        {segMedian(kept, func(s segment) float64 { return s.p99.Value }), "ms"},
		"setup_s":               {median(setups), "s"},
		"server_cpu_ms_per_req": {segMedian(kept, func(s segment) float64 { return s.cpuMS }), "ms"},
		"server_rss_mb":         {segMedian(kept, func(s segment) float64 { return s.rssMB }), "MiB"},
	}
	return res, nil
}

// serveArgs is dplearn-serve's command line in its deployed
// configuration: WAL, trace stream and access log on, logs in dir.
func serveArgs(w workload, walDir, dir string) []string {
	return []string{"-tenants", w.tenantDecl(), "-wal-dir", walDir,
		"-trace", filepath.Join(dir, "serve_trace.ndjson"),
		"-access-log", filepath.Join(dir, "serve_access.ndjson")}
}

// bootTimes boots the server over a copy of the history in dir at least
// minBoots times, and on until the boots have taken bootTime or
// maxBoots is reached, so that a boot of a few milliseconds gets as
// many samples as the budget allows. It returns each boot's time in
// seconds; no boot serves a request.
func bootTimes(c *http.Client, w workload, bin, template, dir string) ([]float64, error) {
	walDir := filepath.Join(dir, "wal")
	if err := copyDir(template, walDir); err != nil {
		return nil, err
	}
	var setups []float64
	var booted time.Duration
	for len(setups) < maxBoots && (len(setups) < minBoots || booted < bootTime) {
		p, setup, err := startServer(c, bin, serveArgs(w, walDir, dir), filepath.Join(dir, "serve.log"))
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		booted += setup
		c.CloseIdleConnections()
		p.kill()
	}
	return setups, os.RemoveAll(dir)
}

// segment is one segment of the timed phase as the client and /proc
// saw it.
type segment struct {
	rps     float64       // successful requests per second
	p50     float64       // ms
	p99     pct           // ms, with the sample count
	cpuMS   float64       // server user+system CPU per completed request
	rssMB   float64       // server peak RSS at the segment's end
	elapsed time.Duration // of the timed requests
	failed  int
	// stolen is the share of the machine's CPU time the hypervisor took
	// during the timed requests.
	stolen       float64
	hits, misses float64 // risk-cache lookups during the timed requests
	gate         []error
}

// runSegment boots a server over a copy of the history in dir, sends it
// reqs (the warm-up, then the timed requests), runs the gate on its
// books, and removes dir.
func runSegment(c *http.Client, w workload, bin string, reqs []request, template, dir string) (segment, error) {
	walDir := filepath.Join(dir, "wal")
	if err := copyDir(template, walDir); err != nil {
		return segment{}, err
	}
	p, _, err := startServer(c, bin, serveArgs(w, walDir, dir), filepath.Join(dir, "serve.log"))
	if err != nil {
		return segment{}, err
	}
	defer func() {
		if p != nil {
			p.kill()
		}
	}()
	pid := p.cmd.Process.Pid
	var books tally
	books.add(reqs, 0, drive(c, p.base, reqs, 0, warmup, time.Time{}))
	cache0, err := scrapeRiskCache(c, p.base)
	if err != nil {
		return segment{}, err
	}
	steal0, ticks0, err := cpuTicks()
	if err != nil {
		return segment{}, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return segment{}, err
	}
	start := time.Now()
	outs := drive(c, p.base, reqs, warmup, len(reqs), time.Time{})
	elapsed := time.Since(start)
	cpu1, err := procCPU(pid)
	if err != nil {
		return segment{}, err
	}
	steal1, ticks1, err := cpuTicks()
	if err != nil {
		return segment{}, err
	}
	rss, err := procHWM(pid)
	if err != nil {
		return segment{}, err
	}
	cache1, err := scrapeRiskCache(c, p.base)
	if err != nil {
		return segment{}, err
	}
	var timed tally
	timed.add(reqs, warmup, outs)
	books.add(reqs, warmup, outs)
	seg := segment{
		rps:     float64(len(outs)-timed.failed) / elapsed.Seconds(),
		p50:     percentile(timed.latMS, 50).Value,
		p99:     percentile(timed.latMS, 99),
		cpuMS:   float64(cpu1-cpu0) / 1e6 / float64(max(len(outs), 1)),
		rssMB:   rss,
		elapsed: elapsed,
		failed:  timed.failed,
		stolen:  float64(steal1-steal0) / float64(max(ticks1-ticks0, 1)),
		hits:    cache1.hits - cache0.hits,
		misses:  cache1.misses - cache0.misses,
	}

	if books.firstErr != nil {
		seg.gate = append(seg.gate, fmt.Errorf("%d request(s) failed; first: %w", books.failed, books.firstErr))
	}
	tenants := w.tenantIDs()
	bk, err := fetchBooks(c, p.base, tenants)
	if err != nil {
		seg.gate = append(seg.gate, err)
	}
	c.CloseIdleConnections()
	err = p.stop()
	p = nil
	if err != nil {
		seg.gate = append(seg.gate, err)
	}
	if bk != nil {
		seg.gate = append(seg.gate, checkWAL(walDir, bk, historyOf(w), books.committed)...)
	}
	if err := checkAccessLog(filepath.Join(dir, "serve_access.ndjson"), len(reqs)+1+len(tenants), reqs); err != nil {
		seg.gate = append(seg.gate, err)
	}
	return seg, os.RemoveAll(dir)
}

// fastest returns the k segments (or all, if fewer) with the highest
// throughput, in run order.
func fastest(segs []segment, k int) []segment {
	order := make([]int, len(segs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return segs[order[a]].rps > segs[order[b]].rps })
	order = order[:min(k, len(order))]
	sort.Ints(order)
	kept := make([]segment, len(order))
	for i, j := range order {
		kept[i] = segs[j]
	}
	return kept
}

func segMedian(segs []segment, f func(segment) float64) float64 {
	v := make([]float64, len(segs))
	for i, s := range segs {
		v[i] = f(s)
	}
	return median(v)
}

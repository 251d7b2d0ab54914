// Command servebench is the repository's benchmark: it drives a live
// dplearn-serve with a closed loop of two clients on one of two
// workloads and prints one JSON result line.
//
//	bash _servebench/run.sh --workload spend-history --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics against the
// dplearn-serve binary (-serve-bin) in its deployed configuration: WAL,
// trace stream and access log on. With --trace 1 it measures the
// per-layer metrics instead, by timing calls into each layer from this
// package (see runTraced). Either way every response is checked, and
// after the run the correctness gate audits the books; any failure
// exits 1. README.md documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	name := flag.String("workload", "", "workload: spend-history or compute-wide")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of each timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	serveBin := flag.String("serve-bin", "", "dplearn-serve binary built from the commit under test")
	work := flag.String("work", "", "directory for the run's WALs, logs and spans")
	flag.Parse()
	if *serveBin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: -serve-bin and -work are required, -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	run := filepath.Join(*work, fmt.Sprintf("run-%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(run, 0o755); err != nil {
		fatal(err)
	}
	res, err := measure(w, *seed, *seconds, *trace == 1, *serveBin, run, filepath.Join(*work, "spans-"+w.name+".ndjson"))
	if rmErr := os.RemoveAll(run); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	if err := checkMetrics(res.metrics); err != nil {
		fatal(err)
	}
	for _, g := range res.gate {
		fmt.Fprintf(os.Stderr, "servebench: GATE FAILED: %v\n", g)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "servebench: %-32s %.6g %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.gate) == 0, max(res.attempted, 1), res.failed + len(res.gate), res.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if len(res.gate) > 0 {
		os.Exit(1)
	}
}

// measure generates the seeded stream, stamps the host, and runs the
// end-to-end or the traced measurement in dir.
func measure(w workload, seed int64, seconds int, traced bool, serveBin, dir, spansPath string) (*result, error) {
	reqs, err := generate(w, seed, warmup+seconds*w.rate)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "servebench: host nproc=%d GOMAXPROCS=%d %s, WAL filesystem %s; workload %s, seed %d, stream digest %x\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir), w.name, seed, digest(reqs))
	if traced {
		return runTraced(w, reqs, seed, seconds, dir, spansPath)
	}
	return runE2E(w, reqs, seed, seconds, serveBin, dir)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
	os.Exit(1)
}

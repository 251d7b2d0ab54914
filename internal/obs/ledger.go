package obs

import (
	"sync"

	"repro/internal/mathx"
)

// LedgerRecord is one line of the privacy ledger: the runtime account of
// a single differentially-private release. It is the dynamic mirror of a
// mechanism.SpendRecord — the ledger stays decoupled from the mechanism
// package so that obs depends only on the standard library and mathx;
// the accountant's observer hook copies the fields across.
type LedgerRecord struct {
	// Seq is the accountant's monotonic sequence number: the arrival
	// order of the spend under the accountant's lock.
	Seq uint64 `json:"seq"`
	// Mechanism is the release's kind ("gibbs", "laplace", ...).
	Mechanism string `json:"mechanism,omitempty"`
	// Sensitivity is the query's global sensitivity (Δq or ΔR̂).
	Sensitivity float64 `json:"sensitivity,omitempty"`
	// Epsilon and Delta are the (ε, δ) guarantee spent by the release.
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta,omitempty"`
	// Outcomes is the release's outcome domain size (|Θ| for a Gibbs
	// draw, the output dimension for a Laplace vector), 0 if unknown.
	Outcomes int `json:"outcomes,omitempty"`
	// Duration is the release's duration in clock units (ns under
	// WallClock, ticks under LogicalClock), 0 if untimed.
	Duration int64 `json:"duration,omitempty"`
	// Span is the id of the trace span enclosing the release, if any.
	Span uint64 `json:"span,omitempty"`
	// Trace is the 32-hex-digit W3C trace id of the request that caused
	// the release, if the release ran under a request span. omitempty
	// keeps pre-tracing ledger NDJSON byte-identical on round-trip and
	// the ComposeBasic cross-check untouched.
	Trace string `json:"trace,omitempty"`
}

// ledgerLine is LedgerRecord with the NDJSON type discriminator.
type ledgerLine struct {
	Type string `json:"type"`
	LedgerRecord
}

// Ledger accounts the privacy ledger of one run. It is safe for
// concurrent use; a nil *Ledger is a valid no-op sink. It keeps only a
// record count and the exact running totals of ε and δ, so its memory
// does not grow with the number of releases. When a Tracer is attached,
// every record is emitted as a "ledger" NDJSON line into the trace
// stream, interleaved with spans; that stream, read back with
// ReadTraceNDJSON, is the ledger's per-release audit trail.
type Ledger struct {
	mu       sync.Mutex
	n        int
	eps, del mathx.ExactSum
	tracer   *Tracer
}

// NewLedger returns an empty ledger. tracer may be nil; when set, each
// Record is also written to the trace as an NDJSON "ledger" line.
func NewLedger(tracer *Tracer) *Ledger {
	return &Ledger{tracer: tracer}
}

// Record accounts one release (nil-safe).
func (l *Ledger) Record(r LedgerRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.n++
	l.eps.Add(r.Epsilon)
	l.del.Add(r.Delta)
	tr := l.tracer
	l.mu.Unlock()
	if tr != nil {
		tr.emit(ledgerLine{Type: "ledger", LedgerRecord: r})
	}
}

// Len returns the number of recorded releases (nil-safe).
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Composed returns the basic sequential composition (Σεᵢ, Σδᵢ) of the
// ledger, summed exactly as ComposeBasic does, so the result is
// bit-identical to mechanism.Accountant.BasicComposition on the same
// multiset of guarantees, for every arrival order and worker count.
func (l *Ledger) Composed() (epsilon, delta float64) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eps.Sum(), l.del.Sum()
}

// ComposeBasic is the basic-composition sum shared with
// mechanism.Accountant.BasicComposition: each component is accumulated
// exactly (mathx.ExactSum) and rounded once, so the composed guarantee
// is a pure function of the *multiset* of spends — reproducible when
// concurrent workers interleave their spends differently across runs
// or worker counts — and agrees bit-for-bit with the accountant's
// running totals.
func ComposeBasic(eps, del []float64) (epsilon, delta float64) {
	var se, sd mathx.ExactSum
	for i := range eps {
		se.Add(eps[i])
		sd.Add(del[i])
	}
	return se.Sum(), sd.Sum()
}

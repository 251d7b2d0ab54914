package serve

import (
	"context"

	"repro/internal/mechanism"
	"repro/internal/obs"
)

// accessInfo is the per-request scratchpad behind one access-log line.
// The tracing middleware allocates it, threads it through the request
// context, and handlers fill in what they learn (tenant, quoted ε,
// commit outcome); the middleware renders it into an obs.AccessRecord
// when the response is written. All spends of a request happen on the
// request goroutine before the middleware's deferred epilogue runs, so
// plain fields suffice.
type accessInfo struct {
	tenant  string
	quoted  float64
	outcome string
	idemKey string
}

// accessKey is the context key carrying the request's accessInfo.
type accessKey struct{}

// withAccessInfo returns ctx carrying ai.
func withAccessInfo(ctx context.Context, ai *accessInfo) context.Context {
	return context.WithValue(ctx, accessKey{}, ai)
}

// accessFrom returns the request's accessInfo, or nil (all setters are
// nil-safe, so handlers never branch).
func accessFrom(ctx context.Context) *accessInfo {
	ai, _ := ctx.Value(accessKey{}).(*accessInfo)
	return ai
}

func (ai *accessInfo) setTenant(id string) {
	if ai != nil {
		ai.tenant = id
	}
}

func (ai *accessInfo) setQuoted(eps float64) {
	if ai != nil {
		ai.quoted = eps
	}
}

func (ai *accessInfo) setOutcome(o string) {
	if ai != nil {
		ai.outcome = o
	}
}

func (ai *accessInfo) setIdemKey(k string) {
	if ai != nil {
		ai.idemKey = k
	}
}

// spentEpsilon is the canonical composition of the guarantees the
// request committed, read from its charge collector: the very records
// the accountant composed, so the access log's spent_epsilon joins the
// ledger bit for bit whether or not the request was traced.
func spentEpsilon(c *mechanism.Charges) float64 {
	recs := c.Records()
	eps := make([]float64, len(recs))
	del := make([]float64, len(recs))
	for i, r := range recs {
		eps[i], del[i] = r.Guarantee.Epsilon, r.Guarantee.Delta
	}
	e, _ := obs.ComposeBasic(eps, del)
	return e
}

package mechanism

import (
	"context"
	"sync"
)

// Charges collects the guarantees one request commits, in commit order.
// The serve layer creates one per request and carries it in the request
// context; facade commit sites stamp SpendMeta.Charges from it, and the
// accountant deposits each committed record here under its lock. So the
// exact guarantees a request committed — which may differ in the low
// bits from its quoted ε (a widened fit charges the remaining headroom,
// a Gibbs density its recalibrated 2·Δq·(ε/2Δq)) — reach the request's
// access-log line and write-ahead commit record bit for bit, with no
// shared map keyed by trace or scope id. A nil *Charges records
// nothing, so library callers never see it.
type Charges struct {
	mu   sync.Mutex
	recs []SpendRecord
}

// add deposits one committed record (nil-safe).
func (c *Charges) add(rec SpendRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, rec)
}

// Records returns a copy of the collected records in commit order.
func (c *Charges) Records() []SpendRecord {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpendRecord(nil), c.recs...)
}

// chargesKey is the context key carrying a request's *Charges.
type chargesKey struct{}

// WithCharges returns ctx carrying the request's charge collector.
func WithCharges(ctx context.Context, c *Charges) context.Context {
	return context.WithValue(ctx, chargesKey{}, c)
}

// ChargesFrom returns the charge collector carried by ctx (nil outside
// any collecting request).
func ChargesFrom(ctx context.Context) *Charges {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(chargesKey{}).(*Charges)
	return c
}

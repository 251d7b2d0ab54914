package mechanism

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
)

// ErrBudgetExhausted reports that admitting a release would push the
// accountant's composed guarantee past the configured budget. The
// pipeline checks it with errors.Is and applies the caller's
// DegradePolicy (refuse, fall back, or widen) instead of spending.
var ErrBudgetExhausted = errors.New("mechanism: privacy budget exhausted")

// SetBudget installs a hard cap on the accountant's basic composition:
// every subsequent Reserve is admitted only if the composed guarantee
// of all spends, all held reservations, and the new request stays
// within the budget in both ε and δ. Already-recorded spends are not
// retroactively rejected, but they do count against the cap. A nil
// accountant ignores the call (nothing is enforced where nothing is
// accounted).
func (a *Accountant) SetBudget(g Guarantee) error {
	if a == nil {
		return nil
	}
	if err := checkGuarantee("budget", g); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.budget = g
	a.hasBudget = true
	return nil
}

// Budget returns the configured budget and whether one is set.
func (a *Accountant) Budget() (Guarantee, bool) {
	if a == nil {
		return Guarantee{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budget, a.hasBudget
}

// checkGuarantee rejects an (ε, δ) pair no budget arithmetic can hold:
// ε must be finite and non-negative and δ in [0, 1). A NaN or infinite
// reservation would poison the running totals (NaN compares false, so
// every later request would be admitted), and a negative one would
// refund budget that was never returned.
func checkGuarantee(what string, g Guarantee) error {
	if math.IsNaN(g.Epsilon) || math.IsInf(g.Epsilon, 0) || g.Epsilon < 0 {
		return fmt.Errorf("mechanism: %s ε must be finite and non-negative, got %v", what, g.Epsilon)
	}
	if math.IsNaN(g.Delta) || g.Delta < 0 || g.Delta >= 1 {
		return fmt.Errorf("mechanism: %s δ must be in [0,1), got %v", what, g.Delta)
	}
	return nil
}

// usedLocked returns the exact running totals of every spend and every
// held reservation, as stack copies the caller may extend. Caller holds
// a.mu.
func (a *Accountant) usedLocked() (eps, del mathx.ExactSum) {
	eps, del = a.spentEps, a.spentDel
	eps.Merge(&a.heldEps)
	del.Merge(&a.heldDel)
	return eps, del
}

// Remaining returns the budget headroom in ε and δ: the exact budget
// minus the exact composition of all spends and held reservations,
// rounded once, and zero once that composition rounds to the budget or
// past it. Reserving the headroom is always admitted and closes the
// budget: the composition then rounds to exactly the budget, so a
// release widened to the headroom leaves no floating-point residue. The
// second result is false when no budget is set.
func (a *Accountant) Remaining() (Guarantee, bool) {
	if a == nil {
		return Guarantee{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.hasBudget {
		return Guarantee{}, false
	}
	eps, del := a.usedLocked()
	return Guarantee{Epsilon: headroom(a.budget.Epsilon, eps), Delta: headroom(a.budget.Delta, del)}, true
}

// headroom returns round(budget − used), or zero once used rounds to
// the budget or past it. The rounded difference h makes used + h round
// to exactly the budget, except when used + h falls on a tie: then it
// may round one ulp past, and h steps down one ulp so that reserving it
// is still admitted.
func headroom(budget float64, used mathx.ExactSum) float64 {
	if used.Sum() >= budget {
		return 0
	}
	over := used
	over.Sub(budget)
	h := -over.Sum()
	used.Add(h)
	if used.Sum() > budget {
		h = math.Nextafter(h, 0)
	}
	return h
}

// Reservation is a held claim on budget headroom: the first half of the
// two-phase spend protocol. Reserve admits the guarantee against the
// budget without charging the ledger; Commit converts the hold into a
// recorded spend once the release actually happened; Release abandons
// the hold so a failed release never charges the ledger. The intended
// shape is
//
//	res, err := acct.Reserve(g)
//	if err != nil { ... degrade ... }
//	defer res.Release() // no-op after Commit; frees the hold on panic
//	out := mech.Release(...)
//	res.Commit(meta)
//
// A nil *Reservation (from a nil accountant) is a valid no-op handle.
type Reservation struct {
	a *Accountant
	g Guarantee

	// state moves from resHeld to resCommitted or resReleased exactly
	// once, under the accountant's lock (a.mu).
	state resState
}

type resState int

const (
	resHeld resState = iota
	resCommitted
	resReleased
)

// Reserve admits a prospective release against the budget and returns a
// hold on it. If composing the request with every spend and every held
// reservation would exceed the budget in ε or δ, it returns an error
// wrapping ErrBudgetExhausted and holds nothing. With no budget set,
// Reserve always admits. On a nil accountant it returns (nil, nil):
// the nil Reservation's Commit and Release are no-ops, matching the
// nil-accountant contract of Spend.
//
// A guarantee with a non-finite or negative ε or δ, or with δ ≥ 1, is
// refused with a validation error that does not wrap
// ErrBudgetExhausted.
//
// Admission is decided on the exact total of the obligation multiset
// (spends, holds and the request) rounded once, so the verdict for a
// given set of outstanding holds is deterministic — independent of the
// order concurrent reservations interleaved in — and costs O(1) in the
// length of the spend history.
func (a *Accountant) Reserve(g Guarantee) (*Reservation, error) {
	if a == nil {
		return nil, nil
	}
	if err := checkGuarantee("reserved", g); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.hasBudget {
		eps, del := a.usedLocked()
		eps.Add(g.Epsilon)
		del.Add(g.Delta)
		used := Guarantee{Epsilon: eps.Sum(), Delta: del.Sum()}
		if used.Epsilon > a.budget.Epsilon || used.Delta > a.budget.Delta {
			return nil, fmt.Errorf("mechanism: reserving (ε=%g, δ=%g) would compose to (ε=%g, δ=%g), over budget (ε=%g, δ=%g): %w",
				g.Epsilon, g.Delta, used.Epsilon, used.Delta, a.budget.Epsilon, a.budget.Delta, ErrBudgetExhausted)
		}
	}
	a.held++
	a.heldEps.Add(g.Epsilon)
	a.heldDel.Add(g.Delta)
	return &Reservation{a: a, g: g}, nil
}

// Amount returns the reserved guarantee (zero on a nil reservation).
func (r *Reservation) Amount() Guarantee {
	if r == nil {
		return Guarantee{}
	}
	return r.g
}

// Commit converts the hold into a recorded spend: the reservation is
// removed from the outstanding set and a SpendRecord with the next
// sequence number is forwarded to meta's charge collector and the
// observer, exactly as SpendDetail would. Committing a released
// reservation or committing twice is an API-misuse panic — it would
// double-charge the ledger. On a nil reservation Commit is a no-op.
func (r *Reservation) Commit(meta SpendMeta) {
	if r == nil {
		return
	}
	a := r.a
	a.mu.Lock()
	defer a.mu.Unlock()
	switch r.state {
	case resCommitted:
		panic("mechanism: Reservation.Commit called twice")
	case resReleased:
		panic("mechanism: Reservation.Commit after Release")
	}
	a.settleLocked(r, resCommitted)
	a.recordLocked(r.g, meta)
}

// Release abandons the hold, returning its headroom to the budget with
// nothing charged to the ledger. After Commit (or a second Release) it
// is a no-op, so `defer res.Release()` is the canonical cleanup: it
// frees the reservation on every early-error and panic path and does
// nothing on the success path that committed. On a nil reservation it
// is a no-op.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	a := r.a
	a.mu.Lock()
	defer a.mu.Unlock()
	if r.state == resHeld {
		a.settleLocked(r, resReleased)
	}
}

// settleLocked moves a held reservation to its final state and takes it
// out of the held count and totals; the subtraction restores the totals
// bit for bit. The state machine settles each hold exactly once, so no
// per-hold bookkeeping is needed. Caller holds a.mu.
func (a *Accountant) settleLocked(r *Reservation, final resState) {
	r.state = final
	a.held--
	a.heldEps.Sub(r.g.Epsilon)
	a.heldDel.Sub(r.g.Delta)
}

// Reserved returns the number of outstanding (held, neither committed
// nor released) reservations.
func (a *Accountant) Reserved() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.held
}

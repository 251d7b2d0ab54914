package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/mechanism"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
)

// This file implements the paper's future-work direction of
// differentially-private density estimation (Section 5), in two flavors:
// the classical Laplace-perturbed histogram, and a Gibbs-posterior
// selection over a family of candidate histograms scored by held-in
// log-likelihood (the PAC-Bayes route the paper proposes to investigate).

// DensityEstimate is a piecewise-constant density over [Lo, Hi).
type DensityEstimate struct {
	Lo, Hi  float64
	Density []float64 // per-bin density values; integrates to 1
}

// At returns the density at x (0 outside [Lo, Hi)).
func (d *DensityEstimate) At(x float64) float64 {
	if x < d.Lo || x >= d.Hi {
		return 0
	}
	bins := len(d.Density)
	idx := int(math.Floor((x - d.Lo) / (d.Hi - d.Lo) * float64(bins)))
	if idx >= bins {
		idx = bins - 1
	}
	return d.Density[idx]
}

// L1Distance returns ∫|d − other| over the common support, computed
// bin-exactly (both estimates must share Lo, Hi, and bin count).
func (d *DensityEstimate) L1Distance(other *DensityEstimate) (float64, error) {
	//dplint:ignore floateq shared-geometry precondition: both estimates must carry bitwise-identical endpoints
	if d.Lo != other.Lo || d.Hi != other.Hi || len(d.Density) != len(other.Density) {
		return 0, fmt.Errorf("core: density estimates not comparable")
	}
	w := (d.Hi - d.Lo) / float64(len(d.Density))
	var k mathx.KahanSum
	for i := range d.Density {
		k.Add(math.Abs(d.Density[i]-other.Density[i]) * w)
	}
	return k.Sum(), nil
}

// PrivateHistogramDensity releases an ε-DP histogram density of feature j
// over [lo, hi) with the given bins: Laplace noise (sensitivity 2, since
// replacing a record moves two counts by one) is added to each bin count,
// negatives are clamped to zero, and the result is normalized to a
// density. The release is ε-DP by Theorem 2.1 plus post-processing; the
// spent ε is registered with acct (nil to skip accounting).
//
//dplint:ignore epscheck thin wrapper: ε is forwarded verbatim to PrivateHistogramDensityCtx, which validates it via mechanism.NewLaplace
func PrivateHistogramDensity(d *dataset.Dataset, j, bins int, lo, hi, epsilon float64, acct *mechanism.Accountant, g *rng.RNG) (*DensityEstimate, error) {
	return PrivateHistogramDensityCtx(context.Background(), d, j, bins, lo, hi, epsilon, acct, g)
}

// PrivateHistogramDensityCtx is PrivateHistogramDensity under a context:
// when ctx carries a request span (the serve layer's tracing middleware
// puts one there), the release runs under a child span and the ledger
// record carries the request's trace id, joining the ε charge to the
// request that caused it.
func PrivateHistogramDensityCtx(ctx context.Context, d *dataset.Dataset, j, bins int, lo, hi, epsilon float64, acct *mechanism.Accountant, g *rng.RNG) (*DensityEstimate, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("%w: empty dataset", ErrBadConfig)
	}
	sp := obs.SpanFromContext(ctx).Child("density.laplace")
	sp.SetAttr("bins", bins)
	defer sp.End()
	q := mechanism.HistogramQuery(j, bins, lo, hi)
	m, err := mechanism.NewLaplace(q, epsilon)
	if err != nil {
		return nil, err
	}
	res, err := acct.Reserve(m.Guarantee())
	if err != nil {
		return nil, fmt.Errorf("core: histogram density release not admitted: %w", err)
	}
	defer res.Release()
	noisy := m.Release(d, g)
	res.Commit(mechanism.SpendMeta{
		Mechanism:   "laplace",
		Sensitivity: m.Query.L1Sensitivity,
		Outcomes:    bins,
		Span:        sp.ID(),
		Trace:       sp.TraceID(),
		Charges:     mechanism.ChargesFrom(ctx),
	})
	var total float64
	for i, v := range noisy {
		if v < 0 {
			noisy[i] = 0
		}
		total += noisy[i]
	}
	out := &DensityEstimate{Lo: lo, Hi: hi, Density: make([]float64, bins)}
	w := (hi - lo) / float64(bins)
	if total == 0 { //dplint:ignore floateq exactly-zero total only when every bin was clamped to literal 0 above
		// All mass noised away: fall back to uniform (still DP: it is a
		// post-processing decision independent of the data).
		for i := range out.Density {
			out.Density[i] = 1 / (hi - lo)
		}
		return out, nil
	}
	for i, v := range noisy {
		out.Density[i] = v / total / w
	}
	return out, nil
}

// NonPrivateHistogramDensity is the ε→∞ baseline: the plain histogram
// density.
func NonPrivateHistogramDensity(d *dataset.Dataset, j, bins int, lo, hi float64) (*DensityEstimate, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("%w: empty dataset", ErrBadConfig)
	}
	h := stats.NewHistogram(lo, hi, bins)
	for _, e := range d.Examples {
		h.Add(e.X[j])
	}
	return &DensityEstimate{Lo: lo, Hi: hi, Density: h.Density()}, nil
}

// GibbsHistogramDensity selects one of a family of candidate histogram
// densities (each a smoothed histogram with a different bin count) by the
// exponential mechanism, scored by per-record average log-likelihood
// clipped to [−clip, 0] — a Gibbs-posterior density estimator in the
// spirit of the paper's Section 5. The release is ε-DP; the spent ε is
// registered with acct (nil to skip accounting).
//
//dplint:ignore epscheck thin wrapper: ε is forwarded verbatim to GibbsHistogramDensityCtx, which validates it via mechanism.NewExponential
func GibbsHistogramDensity(d *dataset.Dataset, j int, binChoices []int, lo, hi, clip, epsilon float64, acct *mechanism.Accountant, g *rng.RNG) (*DensityEstimate, int, error) {
	return GibbsHistogramDensityCtx(context.Background(), d, j, binChoices, lo, hi, clip, epsilon, acct, g)
}

// GibbsHistogramDensityCtx is GibbsHistogramDensity under a context: the
// release runs under a child of the span carried by ctx (if any) and the
// ledger record carries the request's trace id.
func GibbsHistogramDensityCtx(ctx context.Context, d *dataset.Dataset, j int, binChoices []int, lo, hi, clip, epsilon float64, acct *mechanism.Accountant, g *rng.RNG) (*DensityEstimate, int, error) {
	if d == nil || d.Len() == 0 {
		return nil, 0, fmt.Errorf("%w: empty dataset", ErrBadConfig)
	}
	if len(binChoices) == 0 || clip <= 0 {
		return nil, 0, fmt.Errorf("%w: need candidate bin counts and clip > 0", ErrBadConfig)
	}
	sp := obs.SpanFromContext(ctx).Child("density.gibbs")
	sp.SetAttr("candidates", len(binChoices))
	defer sp.End()
	// Precompute smoothed candidate densities (add-one smoothing keeps
	// log-likelihoods finite).
	cands := make([]*DensityEstimate, len(binChoices))
	for c, bins := range binChoices {
		h := stats.NewHistogram(lo, hi, bins)
		for _, e := range d.Examples {
			h.Add(e.X[j])
		}
		w := h.BinWidth()
		total := h.Total() + float64(bins)
		dens := make([]float64, bins)
		for i, cnt := range h.Counts {
			dens[i] = (cnt + 1) / total / w
		}
		cands[c] = &DensityEstimate{Lo: lo, Hi: hi, Density: dens}
	}
	// Quality: clipped average log-likelihood. Replacing one record moves
	// the average by at most clip/n... but the candidate densities also
	// depend on the data through their counts; a swap moves one unit of
	// count, changing log density at the affected bins by at most
	// log((c+2)/(c+1)) ≤ ln 2 per record evaluated there. We take the
	// conservative sensitivity (clip + ln2)/n · n = clip + ln2 over the
	// SUM, i.e. (clip + ln 2)/n for the average times n records → use the
	// sum form with sensitivity clip + ln2.
	//dp:sensitivity Δq=(clip+ln2)/n (clipped average log-likelihood; see the derivation above)
	quality := func(dd *dataset.Dataset, u int) float64 {
		var k mathx.KahanSum
		for _, e := range dd.Examples {
			ll := math.Log(math.Max(cands[u].At(e.X[j]), math.Exp(-clip)))
			k.Add(mathx.Clamp(ll, -clip, 0))
		}
		return k.Sum() / float64(dd.Len())
	}
	sens := (clip + math.Ln2) / float64(d.Len())
	em, err := mechanism.NewExponential(quality, len(cands), sens, epsilon/(2*sens))
	if err != nil {
		return nil, 0, err
	}
	res, err := acct.Reserve(em.Guarantee())
	if err != nil {
		return nil, 0, fmt.Errorf("core: Gibbs density release not admitted: %w", err)
	}
	defer res.Release()
	idx := em.Release(d, g)
	res.Commit(mechanism.SpendMeta{
		Mechanism:   "expmech",
		Sensitivity: sens,
		Outcomes:    len(cands),
		Span:        sp.ID(),
		Trace:       sp.TraceID(),
		Charges:     mechanism.ChargesFrom(ctx),
	})
	return cands[idx], binChoices[idx], nil
}

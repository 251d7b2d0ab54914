package mechanism

import (
	"context"
	"testing"
)

// TestChargesCollectCommittedRecords pins the per-request collector:
// both commit paths (two-phase Commit and SpendDetail) deposit the exact
// committed record into the collector stamped on the meta, and the
// observer never sees the collector pointer.
func TestChargesCollectCommittedRecords(t *testing.T) {
	var a Accountant
	var seen []SpendRecord
	a.SetObserver(func(r SpendRecord) { seen = append(seen, r) })
	c := &Charges{}
	ctx := WithCharges(context.Background(), c)

	res, err := a.Reserve(Guarantee{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	res.Commit(SpendMeta{Mechanism: "gibbs", Charges: ChargesFrom(ctx)})
	a.SpendDetail(Guarantee{Epsilon: 0.5, Delta: 1e-6}, SpendMeta{Mechanism: "laplace", Charges: ChargesFrom(ctx)})
	a.Spend(Guarantee{Epsilon: 1}) // no collector: not this request's charge

	got := c.Records()
	if len(got) != 2 {
		t.Fatalf("collector holds %d record(s), want 2", len(got))
	}
	if len(seen) != 3 {
		t.Fatalf("observer saw %d record(s), want 3", len(seen))
	}
	for i := range got {
		if got[i] != seen[i] {
			t.Errorf("record %d: collector %+v, observer %+v", i, got[i], seen[i])
		}
	}
	for _, r := range seen {
		if r.Meta.Charges != nil {
			t.Errorf("observer seq %d saw the collector", r.Seq)
		}
	}
}

// TestChargesNilIsNoop pins that library callers without a collector
// are unaffected.
func TestChargesNilIsNoop(t *testing.T) {
	if ChargesFrom(context.Background()) != nil {
		t.Fatal("background context carries a collector")
	}
	var c *Charges
	if c.Records() != nil {
		t.Fatal("nil collector has records")
	}
	var a Accountant
	a.SpendDetail(Guarantee{Epsilon: 0.1}, SpendMeta{Charges: c})
	if a.Count() != 1 {
		t.Fatalf("Count = %d, want 1", a.Count())
	}
}

package mechanism

// Micro-benchmarks for the mechanism hot paths.

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/rng"
)

func benchData(n int) *dataset.Dataset {
	g := rng.New(1)
	return dataset.BernoulliTable{P: 0.5}.Generate(n, g)
}

func BenchmarkLaplaceRelease(b *testing.B) {
	d := benchData(1000)
	q := CountQuery(func(e dataset.Example) bool { return e.X[0] == 1 })
	m, err := NewLaplace(q, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Release(d, g)
	}
}

func BenchmarkExponentialRelease(b *testing.B) {
	g := rng.New(3)
	d := &dataset.Dataset{}
	for i := 0; i < 500; i++ {
		d.Append(dataset.Example{X: []float64{g.Float64()}})
	}
	m, _, err := PrivateMedian(0, mathx.Linspace(0, 1, 64), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Release(d, g)
	}
}

func BenchmarkExponentialLogProbabilities(b *testing.B) {
	g := rng.New(5)
	d := &dataset.Dataset{}
	for i := 0; i < 500; i++ {
		d.Append(dataset.Example{X: []float64{g.Float64()}})
	}
	m, _, err := PrivateMedian(0, mathx.Linspace(0, 1, 64), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.LogProbabilities(d)
	}
}

func BenchmarkPermuteAndFlipRelease(b *testing.B) {
	g := rng.New(7)
	scores := make([]float64, 64)
	for i := range scores {
		scores[i] = g.Normal(0, 2)
	}
	m, err := NewPermuteAndFlip(func(_ *dataset.Dataset, u int) float64 { return scores[u] }, 64, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	d := benchData(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Release(d, g)
	}
}

func BenchmarkMWEMRun(b *testing.B) {
	g := rng.New(9)
	domain := 16
	m, err := NewMWEM(domain, IntervalQueries(domain), 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	d := &dataset.Dataset{}
	for i := 0; i < 1000; i++ {
		d.Append(dataset.Example{X: []float64{float64(g.Intn(domain))}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(d, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccountantAdvanced(b *testing.B) {
	var a Accountant
	for i := 0; i < 200; i++ {
		a.Spend(Guarantee{Epsilon: 0.05})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AdvancedComposition(1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

// historyAccountant returns a budgeted accountant holding n committed
// spends drawn like a long-lived serve tenant's: ε in [0.01, 0.03] with
// an occasional 0.5 fit.
func historyAccountant(b *testing.B, n int) *Accountant {
	b.Helper()
	a := &Accountant{}
	if err := a.SetBudget(Guarantee{Epsilon: 1e9}); err != nil {
		b.Fatal(err)
	}
	g := rng.New(11)
	for i := 0; i < n; i++ {
		eps := 0.02 * (0.5 + g.Float64())
		if g.Intn(20) == 0 {
			eps = 0.5
		}
		a.Spend(Guarantee{Epsilon: eps})
	}
	return a
}

// historySizes are the spend-history lengths the AfterN benchmarks run
// at: admission and composition must cost the same at every one.
var historySizes = []struct {
	name string
	n    int
}{{"1e2", 100}, {"1e3", 1000}, {"1e4", 10000}, {"1e5", 100000}}

// BenchmarkReserveAfterN measures one admission (Reserve, then Release
// of the hold) against a budget after N committed spends.
func BenchmarkReserveAfterN(b *testing.B) {
	for _, size := range historySizes {
		b.Run(size.name, func(b *testing.B) {
			a := historyAccountant(b, size.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := a.Reserve(Guarantee{Epsilon: 0.02})
				if err != nil {
					b.Fatal(err)
				}
				res.Release()
			}
		})
	}
}

// BenchmarkBasicCompositionAfterN measures composing N committed spends.
func BenchmarkBasicCompositionAfterN(b *testing.B) {
	for _, size := range historySizes {
		b.Run(size.name, func(b *testing.B) {
			a := historyAccountant(b, size.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				composedSink = a.BasicComposition()
			}
		})
	}
}

var composedSink Guarantee

// BenchmarkSpendDetailObserved measures one spend through an accountant
// observed by a tracer-less privacy ledger. Its B/op is the heap the
// books keep per spend, and must stay 0.
func BenchmarkSpendDetailObserved(b *testing.B) {
	a, _ := ledgerObserved()
	meta := SpendMeta{Mechanism: "laplace", Sensitivity: 1, Outcomes: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SpendDetail(Guarantee{Epsilon: 1e-3}, meta)
	}
}

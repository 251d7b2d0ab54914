package mathx

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/rng"
)

// exactOracle is the reference ExactSum is checked against: the sum
// carried exactly in a math/big.Float wide enough for any float64 total,
// then rounded once, to nearest-even, by big.Float.Float64. NaN and ±Inf
// inputs follow IEEE addition.
func exactOracle(xs []float64) float64 {
	var pinf, ninf bool
	acc := new(big.Float).SetPrec(4096)
	for _, x := range xs {
		switch {
		case math.IsNaN(x):
			return math.NaN()
		case math.IsInf(x, 1):
			pinf = true
		case math.IsInf(x, -1):
			ninf = true
		default:
			acc.Add(acc, new(big.Float).SetFloat64(x))
		}
	}
	switch {
	case pinf && ninf:
		return math.NaN()
	case pinf:
		return math.Inf(1)
	case ninf:
		return math.Inf(-1)
	}
	f, _ := acc.Float64()
	return f
}

func exactSumOf(xs []float64) float64 {
	var s ExactSum
	for _, x := range xs {
		s.Add(x)
	}
	return s.Sum()
}

// sameFloat compares bit patterns, except that every NaN equals every
// other NaN.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// randomBits draws a float64 uniformly over bit patterns, so every
// exponent — subnormals included — is equally likely; NaN and ±Inf
// patterns are redrawn.
func randomBits(g *rng.RNG) float64 {
	for {
		x := math.Float64frombits(uint64(g.Int63n(math.MaxInt64)) | uint64(g.Intn(2))<<63)
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			return x
		}
	}
}

// exactSumCases are the shapes the property test draws from: random bit
// patterns, subnormals, a huge exponent spread, catastrophic
// cancellation, and signed zeros.
var exactSumCases = map[string]func(g *rng.RNG) []float64{
	"random bits": func(g *rng.RNG) []float64 {
		xs := make([]float64, 1+g.Intn(40))
		for i := range xs {
			xs[i] = randomBits(g)
		}
		return xs
	},
	"subnormals": func(g *rng.RNG) []float64 {
		xs := make([]float64, 1+g.Intn(40))
		for i := range xs {
			x := math.Float64frombits(uint64(g.Int63n(1 << 52)))
			if g.Intn(4) == 0 {
				x = math.SmallestNonzeroFloat64 * float64(1+g.Intn(8)) // around the smallest subnormal
			}
			if g.Intn(3) == 0 {
				x = 2.2250738585072014e-308 * (1 + g.Float64()) // smallest normal binade
			}
			if g.Intn(2) == 0 {
				x = -x
			}
			xs[i] = x
		}
		return xs
	},
	"exponent spread": func(g *rng.RNG) []float64 {
		xs := make([]float64, 1+g.Intn(40))
		for i := range xs {
			xs[i] = math.Ldexp(1+g.Float64(), g.Intn(2098)-1074)
			if g.Intn(2) == 0 {
				xs[i] = -xs[i]
			}
		}
		return xs
	},
	"cancellation": func(g *rng.RNG) []float64 {
		var xs []float64
		for i := 0; i < 1+g.Intn(10); i++ {
			m := math.Ldexp(1+g.Float64(), g.Intn(2000)-900)
			xs = append(xs, m, math.Ldexp(g.Float64(), g.Intn(200)-1074), -m)
			if g.Intn(2) == 0 {
				xs = append(xs, math.Nextafter(m, 0), -math.Nextafter(m, math.Inf(1)))
			}
		}
		g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	},
	"signed zeros": func(g *rng.RNG) []float64 {
		xs := make([]float64, 1+g.Intn(6))
		for i := range xs {
			xs[i] = math.Copysign(0, float64(g.Intn(2))-0.5)
			if g.Intn(4) == 0 {
				xs[i] = 1e-300 * (float64(g.Intn(3)) - 1)
			}
		}
		return xs
	},
}

// TestExactSumMatchesBigOracle pins Sum to the exact total rounded once,
// bit for bit, on random inputs of every shape.
func TestExactSumMatchesBigOracle(t *testing.T) {
	for name, gen := range exactSumCases {
		g := rng.New(11)
		for trial := 0; trial < 2000; trial++ {
			xs := gen(g)
			if got, want := exactSumOf(xs), exactOracle(xs); !sameFloat(got, want) {
				t.Fatalf("%s: ExactSum(%v) = %v (%#x), oracle %v (%#x)",
					name, xs, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestExactSumEdges pins the hand-picked corners: ties to even,
// subnormal results, overflow and its recovery, and IEEE special values.
func TestExactSumEdges(t *testing.T) {
	const ulp1 = 0x1p-52
	inf, nan := math.Inf(1), math.NaN()
	tiny := math.SmallestNonzeroFloat64
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"negative zeros", []float64{math.Copysign(0, -1), math.Copysign(0, -1)}, 0},
		{"tie to even stays", []float64{1, ulp1 / 2}, 1},
		{"tie to even rounds up", []float64{1 + ulp1, ulp1 / 2}, 1 + 2*ulp1},
		{"tie broken by a sticky bit", []float64{1, ulp1 / 2, tiny}, 1 + ulp1},
		{"negative tie", []float64{-1 - ulp1, -ulp1 / 2}, -1 - 2*ulp1},
		{"cancellation leaves the small term", []float64{1e300, 1, -1e300}, 1},
		{"subnormal result", []float64{0x1p-1022, -tiny}, math.Nextafter(0x1p-1022, 0)},
		{"smallest subnormal", []float64{tiny, tiny, -tiny}, tiny},
		{"overflow", []float64{math.MaxFloat64, math.MaxFloat64}, inf},
		{"negative overflow", []float64{-math.MaxFloat64, -math.MaxFloat64}, -inf},
		{"overflow then recovery", []float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64}, math.MaxFloat64},
		{"rounding overflows", []float64{math.MaxFloat64, 0x1p970}, inf},
		{"rounding stays finite", []float64{math.MaxFloat64, math.Nextafter(0x1p970, 0)}, math.MaxFloat64},
		{"+Inf", []float64{1, inf}, inf},
		{"-Inf", []float64{-inf, 1}, -inf},
		{"+Inf and -Inf", []float64{inf, -inf}, nan},
		{"NaN", []float64{1, nan, 2}, nan},
	}
	for _, tc := range cases {
		if got := exactSumOf(tc.xs); !sameFloat(got, tc.want) {
			t.Errorf("%s: ExactSum(%v) = %v, want %v", tc.name, tc.xs, got, tc.want)
		}
		if want := exactOracle(tc.xs); !sameFloat(tc.want, want) {
			t.Errorf("%s: table says %v, oracle %v", tc.name, tc.want, want)
		}
	}
	var s ExactSum
	s.Sub(inf)
	if got := s.Sum(); !math.IsInf(got, -1) {
		t.Errorf("Sub(+Inf) = %v, want -Inf", got)
	}
}

// TestExactSumShuffleInvariant pins order independence: every
// permutation of the same multiset gives the same bits.
func TestExactSumShuffleInvariant(t *testing.T) {
	g := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		xs := exactSumCases["cancellation"](g)
		xs = append(xs, exactSumCases["random bits"](g)...)
		want := exactSumOf(xs)
		for p := 0; p < 5; p++ {
			g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			if got := exactSumOf(xs); !sameFloat(got, want) {
				t.Fatalf("permutation changed the sum: %v vs %v", got, want)
			}
		}
	}
}

// TestExactSumSubRestoresState pins that Sub(x) undoes Add(x) bit for
// bit — the property a running total of held reservations relies on —
// and that Merge composes like adding each value.
func TestExactSumSubRestoresState(t *testing.T) {
	g := rng.New(5)
	for trial := 0; trial < 500; trial++ {
		var s ExactSum
		for _, x := range exactSumCases["exponent spread"](g) {
			s.Add(x)
		}
		s.normalize()
		before := s
		xs := exactSumCases["random bits"](g)
		for _, x := range xs {
			s.Add(x)
		}
		for _, x := range xs {
			s.Sub(x)
		}
		s.normalize()
		if s.limbs != before.limbs {
			t.Fatalf("Add then Sub of %v changed the running total", xs)
		}

		var part, whole ExactSum
		whole = before
		for _, x := range xs {
			part.Add(x)
			whole.Add(x)
		}
		merged := before
		merged.Merge(&part)
		if got, want := merged.Sum(), whole.Sum(); !sameFloat(got, want) {
			t.Fatalf("Merge = %v, adding each value = %v", got, want)
		}
	}
}

// TestExactSumCarryNormalisation drives more than 2³¹ operations through
// addTimes in the batches 2³¹ single Adds would normalise at, and checks
// the exact total: without the lazy carry normalisation the limbs would
// overflow int64.
func TestExactSumCarryNormalisation(t *testing.T) {
	// The largest 53-bit mantissa at limb offset 31: its middle chunk is
	// 2³²−1, the most one operation can move a limb.
	x := math.Ldexp(float64(1<<53-1), 31-1074+1074/32*32)
	const total = 3 << 30 // > 2³¹ operations
	cases := []struct {
		name string
		k    int64 // +1 adds, −1 subtracts
	}{{"add", 1}, {"sub", -1}}
	for _, tc := range cases {
		var s ExactSum
		s.Add(-0.5) // a term of the other sign keeps the oracle honest
		for left := int64(total); left > 0; {
			batch := exactNormalizeEvery - s.ops
			if batch <= 0 {
				t.Fatalf("%s: %d operations pending without a normalisation", tc.name, s.ops)
			}
			if batch > left {
				batch = left
			}
			s.addTimes(x, tc.k*batch)
			left -= batch
		}
		want := new(big.Float).SetPrec(4096).SetFloat64(x)
		want.Mul(want, new(big.Float).SetInt64(tc.k*total))
		want.Add(want, big.NewFloat(-0.5))
		w, _ := want.Float64()
		if got := s.Sum(); !sameFloat(got, w) {
			t.Fatalf("%s: %d·%v − 0.5 = %v, want %v", tc.name, total, x, got, w)
		}
	}
}

// TestExactSumAllocs pins that the accumulator never allocates.
func TestExactSumAllocs(t *testing.T) {
	var s, o ExactSum
	o.Add(3)
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		s.Add(1.5)
		s.Sub(0x1p-1070)
		s.Merge(&o)
		sink += s.Sum()
	}); n != 0 {
		t.Fatalf("ExactSum allocates %v times per Add/Sub/Merge/Sum", n)
	}
	_ = sink
}

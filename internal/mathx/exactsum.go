package mathx

import (
	"math"
	"math/bits"
)

// Every finite float64 is an integer multiple of 2⁻¹⁰⁷⁴ whose magnitude
// stays below 2¹⁰²⁴, so every finite sum of float64s is an integer on
// that grid spanning at most exactBitPositions bits. ExactSum holds that
// integer in exactLimbs signed limbs of exactLimbBits bits each; limb i
// carries the bits at positions [32i, 32i+32).
const (
	exactBitPositions = 2098 // 1074 fractional + 1024 integer bit positions
	exactLimbBits     = 32
	exactLimbMask     = 1<<exactLimbBits - 1
	exactLimbs        = (exactBitPositions + exactLimbBits - 1) / exactLimbBits

	// exactNormalizeEvery bounds the operations between carry
	// normalisations. A normalised limb lies in [0, 2³²) and every
	// operation moves it by less than 2³², so after k operations
	// |limb| < (k+1)·2³² — below 2⁶³ for every k ≤ 2³⁰.
	exactNormalizeEvery = 1 << 30
)

// ExactSum accumulates float64 values exactly: a fixed-size
// superaccumulator in the style of Neal (arXiv:1505.05571). The running
// total is kept as an exact fixed-point integer, so Add and Sub never
// round, and Sum rounds the exact total once, to nearest-even. The
// result is therefore a pure function of the multiset of values added
// (minus those subtracted): it does not depend on the order of the
// operations, and subtracting a value restores the running total an
// Add of it left, bit for bit.
//
// Add, Sub and Merge cost O(1) and never allocate. NaN and ±Inf inputs
// are sticky and make Sum return what an IEEE sum would: NaN for any NaN
// or for +Inf together with −Inf, otherwise the infinity seen. A sum of
// exactly zero is +0. Sum overflows to ±Inf exactly when the correctly
// rounded total does. The total must stay below 2¹⁰⁶⁹ in magnitude — the
// top limb's carry range — which 2⁴⁴ adds of math.MaxFloat64 cannot
// reach.
//
// The zero value is an empty sum ready to use. An ExactSum is a plain
// value: copying it copies the running total.
type ExactSum struct {
	limbs [exactLimbs]int64
	// Every limb outside [lo, hi] is zero; hi == 0 means no limb was
	// ever touched. Sum and Merge visit only that range — a handful of
	// limbs when the values share a few binades — so neither walks all
	// exactLimbs.
	lo, hi int
	// ops counts the operations since the limbs were last normalised.
	ops                 int64
	nan, posInf, negInf bool
}

// Add adds x to the running total exactly.
func (s *ExactSum) Add(x float64) { s.addTimes(x, 1) }

// Sub subtracts x from the running total exactly. For finite x it undoes
// an earlier Add(x) bit for bit.
func (s *ExactSum) Sub(x float64) { s.addTimes(x, -1) }

// addTimes adds k·x exactly and counts |k| operations. The caller keeps
// s.ops+|k| ≤ exactNormalizeEvery, so no limb can overflow before the
// normalisation it triggers.
func (s *ExactSum) addTimes(x float64, k int64) {
	b := math.Float64bits(x)
	if b>>63 != 0 {
		k = -k
	}
	exp := int(b >> 52 & 0x7ff)
	mant := b & (1<<52 - 1)
	switch exp {
	case 0x7ff:
		switch {
		case mant != 0:
			s.nan = true
		case k > 0:
			s.posInf = true
		default:
			s.negInf = true
		}
		return
	case 0:
		if mant == 0 {
			return // ±0
		}
		exp = 1 // subnormal: the scale of the smallest normal, no hidden bit
	default:
		mant |= 1 << 52
	}
	// x = ±mant·2^(pos−1074): the mantissa's low bit sits at grid
	// position pos, and its 53 bits straddle at most three limbs.
	pos := exp - 1
	i, sh := pos/exactLimbBits, uint(pos%exactLimbBits)
	lo := mant << sh
	s.limbs[i] += k * int64(lo&exactLimbMask)
	s.limbs[i+1] += k * int64(lo>>exactLimbBits)
	s.limbs[i+2] += k * int64(mant>>(64-sh))
	s.touch(i, i+2)
	if k < 0 {
		k = -k
	}
	s.ops += k
	if s.ops >= exactNormalizeEvery {
		s.normalize()
	}
}

// Merge adds o's running total (and its NaN/Inf state) into s.
func (s *ExactSum) Merge(o *ExactSum) {
	if o.hi != 0 {
		if s.ops+o.ops >= exactNormalizeEvery {
			s.normalize()
		}
		for i := o.lo; i <= o.hi; i++ {
			s.limbs[i] += o.limbs[i]
		}
		s.touch(o.lo, o.hi)
		s.ops += o.ops + 1
		if s.ops >= exactNormalizeEvery {
			s.normalize()
		}
	}
	s.nan = s.nan || o.nan
	s.posInf = s.posInf || o.posInf
	s.negInf = s.negInf || o.negInf
}

// touch widens the nonzero range to cover limbs lo..hi (hi > 0).
func (s *ExactSum) touch(lo, hi int) {
	if s.hi == 0 || lo < s.lo {
		s.lo = lo
	}
	if hi > s.hi {
		s.hi = hi
	}
}

// normalize propagates carries through every limb, so that all limbs
// but the top one lie in [0, 2³²) and the top one keeps the sign of the
// total, and shrinks hi to the highest nonzero limb.
func (s *ExactSum) normalize() {
	s.ops = 0
	if s.hi == 0 {
		return
	}
	carry(s.limbs[s.lo:])
	s.hi = exactLimbs - 1
	for s.hi > s.lo && s.limbs[s.hi] == 0 {
		s.hi--
	}
}

// carry propagates carries from each limb of l into the next, leaving
// l[:len(l)-1] in [0, 2³²) and the signed remainder in the last limb.
func carry(l []int64) {
	for i := 0; i < len(l)-1; i++ {
		c := l[i] >> exactLimbBits // arithmetic shift: floor division
		l[i] -= c << exactLimbBits
		l[i+1] += c
	}
}

// Sum returns the exact running total rounded once to the nearest
// float64, ties to even.
func (s *ExactSum) Sum() float64 {
	switch {
	case s.nan || s.posInf && s.negInf:
		return math.NaN()
	case s.posInf:
		return math.Inf(1)
	case s.negInf:
		return math.Inf(-1)
	}
	if s.hi == 0 {
		return 0
	}
	// Normalise a copy of the live range: every limb below hi into
	// [0, 2³²), and the signed remainder — possibly wider than 32 bits —
	// into l[hi]. Its sign is the total's.
	l := s.limbs
	lo, hi := s.lo, s.hi
	carry(l[lo : hi+1])
	var sign uint64
	if l[hi] < 0 {
		sign = 1 << 63
		for i := lo; i <= hi; i++ {
			l[i] = -l[i]
		}
		carry(l[lo : hi+1])
	}
	top := hi
	for top >= lo && l[top] == 0 {
		top--
	}
	if top < lo {
		return 0
	}
	// The magnitude is the integer N = Σ l[i]·2^(32i) of bit length n,
	// and the total is N·2⁻¹⁰⁷⁴.
	n := top*exactLimbBits + bits.Len64(uint64(l[top]))
	if n <= 53 {
		// Exact. Below 2⁵³ the float64 bit pattern of N·2⁻¹⁰⁷⁴ is N
		// itself (subnormal, or the smallest normal binade).
		return math.Float64frombits(sign | uint64(l[0]) | uint64(l[1])<<exactLimbBits)
	}
	if n > exactBitPositions {
		return math.Float64frombits(sign | 0x7ff<<52)
	}
	// Keep the top 53 bits (from position shift up), rounding on the bit
	// below them and the sticky OR of everything lower. n ≤ 2098 keeps
	// the three-limb window inside the array; bits a wide l[top] shifts
	// out of the window lie above n and are zero.
	shift := n - 53
	i, sh := (shift-1)/exactLimbBits, uint((shift-1)%exactLimbBits)
	w := uint64(l[i])>>sh | uint64(l[i+1])<<(exactLimbBits-sh) | uint64(l[i+2])<<(2*exactLimbBits-sh)
	mant := w >> 1 & (1<<53 - 1)
	sticky := uint64(l[i]) & (1<<sh - 1)
	for j := lo; j < i && sticky == 0; j++ {
		sticky = uint64(l[j])
	}
	if w&1 != 0 && (sticky != 0 || mant&1 != 0) {
		mant++
		if mant == 1<<53 {
			mant >>= 1
			shift++
		}
	}
	// mant·2^(shift−1074) with mant in [2⁵², 2⁵³) has biased exponent
	// shift+1.
	biased := uint64(shift + 1)
	if biased >= 0x7ff {
		return math.Float64frombits(sign | 0x7ff<<52)
	}
	return math.Float64frombits(sign | biased<<52 | mant&(1<<52-1))
}

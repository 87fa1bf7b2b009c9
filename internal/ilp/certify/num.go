package certify

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// num is an exact rational. A value whose reduced numerator and
// denominator both fit an int64 is held as that fraction; any other value
// is promoted to a *big.Rat. The split is canonical — a value is promoted
// exactly when it does not fit — so every operation first tries int64
// arithmetic, detects overflow, and only then redoes that one operation in
// big.Rat, demoting the result again when it fits. The zero value is 0.
//
// The checker's inputs are IPET rows: small integer coefficients and
// right-hand sides, so in practice every value stays in int64 and no
// operation allocates.
type num struct {
	p int64    // numerator; never math.MinInt64, so negation cannot overflow
	d int64    // denominator minus one (>= 0), so the zero value is 0/1
	r *big.Rat // the value when promoted, else nil; never mutated once set
}

func numInt(v int64) num { return num{p: v} }

// numFloat converts a finite float64 exactly. Integers of magnitude at most
// 2^53 convert directly; every other value goes through big.Rat.SetFloat64
// (exact for any finite float64). Non-finite inputs, which Problem.Validate
// rejects for every row, convert to 0.
func numFloat(f float64) num {
	if f == math.Trunc(f) && math.Abs(f) <= 1<<53 {
		return num{p: int64(f)}
	}
	r := new(big.Rat)
	r.SetFloat64(f)
	return ratNum(r)
}

// ratNum wraps r (which it takes ownership of) in canonical form.
func ratNum(r *big.Rat) num {
	if n, d := r.Num(), r.Denom(); n.IsInt64() && d.IsInt64() {
		if p := n.Int64(); p != math.MinInt64 {
			return num{p: p, d: d.Int64() - 1}
		}
	}
	return num{r: r}
}

// frac returns p/q in canonical form, for q > 0 and p != math.MinInt64.
func frac(p, q int64) num {
	if q != 1 {
		if g := gcd(abs64(p), q); g > 1 {
			p, q = p/g, q/g
		}
	}
	return num{p: p, d: q - 1}
}

func (a num) den() int64 { return a.d + 1 }

// rat returns the value as a fresh *big.Rat the caller may modify.
func (a num) rat() *big.Rat { return a.setRat(new(big.Rat)) }

// setRat sets z to the value and returns z.
func (a num) setRat(z *big.Rat) *big.Rat {
	switch {
	case a.r != nil:
		return z.Set(a.r)
	case a.d == 0:
		return z.SetInt64(a.p)
	}
	return z.SetFrac64(a.p, a.den())
}

// bigView returns the value as a *big.Rat that must not be modified.
func (a num) bigView() *big.Rat {
	if a.r != nil {
		return a.r
	}
	return a.setRat(new(big.Rat))
}

func (a num) sign() int {
	if a.r != nil {
		return a.r.Sign()
	}
	switch {
	case a.p > 0:
		return 1
	case a.p < 0:
		return -1
	}
	return 0
}

func (a num) isZero() bool { return a.r == nil && a.p == 0 }

func (a num) isInt() bool {
	if a.r != nil {
		return a.r.IsInt()
	}
	return a.d == 0
}

func (a num) String() string {
	switch {
	case a.r != nil:
		return a.r.RatString()
	case a.d == 0:
		return strconv.FormatInt(a.p, 10)
	}
	return strconv.FormatInt(a.p, 10) + "/" + strconv.FormatInt(a.den(), 10)
}

func (a num) neg() num {
	if a.r != nil {
		return ratNum(new(big.Rat).Neg(a.r))
	}
	return num{p: -a.p, d: a.d}
}

func add(a, b num) num {
	if a.r == nil && b.r == nil {
		if a.d == 0 && b.d == 0 {
			if s, ok := add64(a.p, b.p); ok {
				return num{p: s}
			}
		} else if s, ok := addFrac(a, b); ok {
			return s
		}
	}
	return ratNum(new(big.Rat).Add(a.bigView(), b.bigView()))
}

func sub(a, b num) num { return add(a, b.neg()) }

// addFrac adds two int64 fractions over their least common denominator.
func addFrac(a, b num) (num, bool) {
	aq, bq := a.den(), b.den()
	g := gcd(aq, bq)
	x, ok1 := mul64(a.p, bq/g)
	y, ok2 := mul64(b.p, aq/g)
	q, ok3 := mul64(aq, bq/g)
	s, ok4 := add64(x, y)
	if !(ok1 && ok2 && ok3 && ok4) {
		return num{}, false
	}
	return frac(s, q), true
}

func mul(a, b num) num {
	if a.r == nil && b.r == nil {
		if a.d == 0 && b.d == 0 {
			if v, ok := mul64(a.p, b.p); ok {
				return num{p: v}
			}
		} else {
			// Cross-reduce first: the product of reduced fractions divided
			// by these two gcds is already in lowest terms.
			aq, bq := a.den(), b.den()
			g1, g2 := gcd(abs64(a.p), bq), gcd(abs64(b.p), aq)
			p, ok1 := mul64(a.p/g1, b.p/g2)
			q, ok2 := mul64(aq/g2, bq/g1)
			if ok1 && ok2 {
				return num{p: p, d: q - 1}
			}
		}
	}
	return ratNum(new(big.Rat).Mul(a.bigView(), b.bigView()))
}

// quo returns a/b for b != 0.
func quo(a, b num) num {
	if b.r != nil {
		return ratNum(new(big.Rat).Quo(a.bigView(), b.r))
	}
	// 1/b as a canonical fraction: the sign moves to the numerator.
	inv := num{p: b.den(), d: abs64(b.p) - 1}
	if b.p < 0 {
		inv.p = -inv.p
	}
	return mul(a, inv)
}

// cmp compares a and b, returning -1, 0 or +1.
func cmp(a, b num) int {
	if a.r == nil && b.r == nil && a.d == 0 && b.d == 0 {
		switch {
		case a.p < b.p:
			return -1
		case a.p > b.p:
			return 1
		}
		return 0
	}
	return sub(a, b).sign()
}

// mul64 multiplies exactly, reporting false when the product's magnitude
// exceeds math.MaxInt64.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(abs64(a)), uint64(abs64(b)))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// add64 adds exactly, reporting false when the sum's magnitude exceeds
// math.MaxInt64.
func add64(a, b int64) (int64, bool) {
	s := a + b
	if (s^a)&(s^b) < 0 || s == math.MinInt64 {
		return 0, false
	}
	return s, true
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// gcd returns the greatest common divisor of a, b >= 0, not both zero.
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Package rational implements exact rational-number arithmetic for the
// timing domain of fixed-priority process networks.
//
// The FPPN paper allows process periods T_p ∈ Q+ and computes the
// hyperperiod as the least common multiple of rational numbers, so all
// model time stamps, periods, deadlines and schedule instants in this
// repository are represented as Rat values rather than floats. Rat uses
// a 64-bit numerator and denominator in lowest terms; every operation
// checks for overflow and panics with a descriptive message if the exact
// result is not representable, which for the millisecond-scale values used
// by real-time applications never happens in practice.
package rational

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Rat is an exact rational number. The zero value is 0.
//
// Invariants: den > 0 and gcd(|num|, den) == 1, except that the zero value
// (num == 0, den == 0) is also accepted everywhere and treated as 0. This
// makes the zero value useful: var t rational.Rat is a valid time stamp 0.
type Rat struct {
	num int64
	den int64
}

// Zero is the rational number 0.
var Zero = Rat{0, 1}

// One is the rational number 1.
var One = Rat{1, 1}

// New returns the rational num/den in lowest terms.
// It panics if den == 0.
func New(num, den int64) Rat {
	if den == 0 {
		panic("rational: zero denominator")
	}
	// Reduce before fixing the sign: only a part still at math.MinInt64
	// after the reduction cannot change sign.
	if g := gcd64(num, den); g != 1 {
		num /= g
		den /= g
	}
	if den < 0 {
		if num == math.MinInt64 || den == math.MinInt64 {
			panic(fmt.Sprintf("rational: integer overflow in %d/%d", num, den))
		}
		num, den = -num, -den
	}
	return Rat{num, den}
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{n, 1} }

// Milli returns n/1000, convenient for expressing milliseconds when the
// model's base time unit is seconds.
func Milli(n int64) Rat { return New(n, 1000) }

// normalized returns r with the zero value canonicalized to 0/1.
func (r Rat) normalized() Rat {
	if r.den == 0 {
		return Rat{0, 1}
	}
	return r
}

// Num returns the numerator of r in lowest terms.
func (r Rat) Num() int64 { return r.normalized().num }

// Den returns the (positive) denominator of r in lowest terms.
func (r Rat) Den() int64 { return r.normalized().den }

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.num == 0 }

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.normalized().den == 1 }

// Sign returns -1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	switch {
	case r.num > 0:
		return 1
	case r.num < 0:
		return -1
	default:
		return 0
	}
}

// Neg returns -r. It panics when the numerator is math.MinInt64, whose
// negation does not fit int64.
func (r Rat) Neg() Rat {
	r = r.normalized()
	return Rat{subChecked(0, r.num), r.den}
}

// Add returns r + s.
func (r Rat) Add(s Rat) Rat {
	r, s = r.normalized(), s.normalized()
	// Adding zero (frame 0's offset f·H, a zero overhead) needs no
	// normalization: the other operand is already in lowest terms.
	if r.num == 0 {
		return s
	}
	if s.num == 0 {
		return r
	}
	// Fast paths for the dominant cases in the execution engines: integer
	// time stamps and equal denominators (frame offsets f·H added to
	// arrivals sharing H's denominator). Both skip the lcm computation;
	// a/d + b/d needs only one reduction, and integers need none.
	if r.den == s.den {
		num := addChecked(r.num, s.num)
		if r.den == 1 {
			return Rat{num, 1}
		}
		return New(num, r.den)
	}
	// a/b + c/d = (a*(l/b) + c*(l/d)) / l with l = lcm(b, d).
	g := gcd64(r.den, s.den)
	db := r.den / g
	dd := s.den / g
	den := mulChecked(db, s.den)
	num := addChecked(mulChecked(r.num, dd), mulChecked(s.num, db))
	return New(num, den)
}

// Sub returns r - s.
func (r Rat) Sub(s Rat) Rat {
	r, s = r.normalized(), s.normalized()
	// Same-denominator fast path, mirroring Add.
	if r.den == s.den {
		num := subChecked(r.num, s.num)
		if r.den == 1 {
			return Rat{num, 1}
		}
		return New(num, r.den)
	}
	return r.Add(s.Neg())
}

// Mul returns r * s.
func (r Rat) Mul(s Rat) Rat {
	r, s = r.normalized(), s.normalized()
	// Cross-reduce before multiplying to delay overflow.
	g1 := gcd64(r.num, s.den)
	g2 := gcd64(s.num, r.den)
	num := mulChecked(r.num/g1, s.num/g2)
	den := mulChecked(r.den/g2, s.den/g1)
	return New(num, den)
}

// Div returns r / s. It panics if s == 0.
func (r Rat) Div(s Rat) Rat {
	s = s.normalized()
	if s.num == 0 {
		panic("rational: division by zero")
	}
	return r.Mul(Rat{s.den, s.num}.canon())
}

// canon restores the sign invariant after a manual num/den swap.
func (r Rat) canon() Rat {
	if r.den < 0 {
		return Rat{-r.num, -r.den}
	}
	return r
}

// Cmp compares r and s and returns -1 if r < s, 0 if r == s, +1 if r > s.
// The comparison is exact for every pair of values and never panics.
func (r Rat) Cmp(s Rat) int {
	r, s = r.normalized(), s.normalized()
	// Equal denominators (in particular both integers) compare by
	// numerator alone.
	if r.den == s.den {
		return cmp.Compare(r.num, s.num)
	}
	if c := cmp.Compare(r.Sign(), s.Sign()); c != 0 {
		return c
	}
	// Same sign: compare |a|·(d/g) with |c|·(b/g), g = gcd(b, d), as
	// 128-bit products, and flip the result for negative values.
	g := gcd64(r.den, s.den)
	lhi, llo := bits.Mul64(uabs64(r.num), uint64(s.den/g))
	rhi, rlo := bits.Mul64(uabs64(s.num), uint64(r.den/g))
	c := cmp.Compare(lhi, rhi)
	if c == 0 {
		c = cmp.Compare(llo, rlo)
	}
	return c * r.Sign()
}

// Less reports whether r < s.
func (r Rat) Less(s Rat) bool { return r.Cmp(s) < 0 }

// LessEq reports whether r <= s.
func (r Rat) LessEq(s Rat) bool { return r.Cmp(s) <= 0 }

// Equal reports whether r == s.
func (r Rat) Equal(s Rat) bool { return r.Cmp(s) == 0 }

// Max returns the larger of r and s.
func (r Rat) Max(s Rat) Rat {
	if r.Cmp(s) >= 0 {
		return r.normalized()
	}
	return s.normalized()
}

// FloorDiv returns ⌊r / s⌋ as an integer. It panics if s <= 0.
func (r Rat) FloorDiv(s Rat) int64 {
	if s.Sign() <= 0 {
		panic("rational: FloorDiv by non-positive divisor")
	}
	q := r.Div(s).normalized()
	return floorQuot(q.num, q.den)
}

// FloorDivOK returns ⌊r / s⌋ for s > 0; ok is false when the quotient,
// or an intermediate product of the exact division, overflows int64.
func (r Rat) FloorDivOK(s Rat) (q int64, ok bool) {
	r, s = r.normalized(), s.normalized()
	g1, g2 := gcd64(r.num, s.num), gcd64(s.den, r.den)
	num, okN := MulOK(r.num/g1, s.den/g2)
	den, okD := MulOK(r.den/g2, s.num/g1)
	if !okN || !okD {
		return 0, false
	}
	return floorQuot(num, den), true
}

// Floor returns ⌊r⌋.
func (r Rat) Floor() int64 {
	r = r.normalized()
	return floorQuot(r.num, r.den)
}

// Ceil returns ⌈r⌉.
func (r Rat) Ceil() int64 {
	r = r.normalized()
	if r.num%r.den == 0 {
		return r.num / r.den
	}
	return floorQuot(r.num, r.den) + 1
}

// MulInt returns r * n.
func (r Rat) MulInt(n int64) Rat { return r.Mul(FromInt(n)) }

// DivInt returns r / n. It panics if n == 0.
func (r Rat) DivInt(n int64) Rat { return r.Div(FromInt(n)) }

// Float64 returns the nearest float64 to r. It is intended for reporting
// (loads, utilizations) only; semantics never depend on it.
func (r Rat) Float64() float64 {
	r = r.normalized()
	return float64(r.num) / float64(r.den)
}

// LcmAll returns the least common multiple of all values, which must be
// positive. ok is false when the LCM overflows int64. It panics if values
// is empty.
func LcmAll(values []Rat) (lcm Rat, ok bool) {
	if len(values) == 0 {
		panic("rational: LcmAll of empty slice")
	}
	for _, v := range values {
		if v.Sign() <= 0 {
			panic("rational: LcmAll of non-positive values")
		}
	}
	acc := values[0].normalized()
	for _, v := range values[1:] {
		v = v.normalized()
		num, ok := MulOK(acc.num/gcd64(acc.num, v.num), v.num)
		if !ok {
			return Rat{}, false
		}
		acc = New(num, gcd64(acc.den, v.den))
	}
	return acc, true
}

// Scale maps a family of rationals onto a shared integer timescale: every
// value becomes a whole number of ticks of length 1/den. Task-graph
// derivation lowers a network's periods, deadlines and WCETs through one
// Scale, so the derivation, the scheduler, the feasibility checker and the
// schedulability tests compare and add int64 ticks instead of normalizing
// rationals. The zero value is the degenerate 1-tick-per-unit scale.
type Scale struct {
	den int64
}

// CommonScale returns the coarsest Scale that represents every value in
// every group exactly: den is the least common multiple of all
// denominators. ok is false when that LCM overflows int64, in which case
// the values have no integer timescale.
func CommonScale(groups ...[]Rat) (Scale, bool) {
	den := int64(1)
	for _, g := range groups {
		for _, r := range g {
			d := r.Den()
			g2 := gcd64(den, d)
			next, ok := MulOK(den/g2, d)
			if !ok {
				return Scale{}, false
			}
			den = next
		}
	}
	return Scale{den: den}, true
}

// Den returns the ticks-per-unit denominator of the scale.
func (s Scale) Den() int64 {
	if s.den == 0 {
		return 1
	}
	return s.den
}

// Ticks converts r to tick units: r * den. ok is false when r is not an
// exact multiple of a tick or the product overflows.
func (s Scale) Ticks(r Rat) (int64, bool) {
	r = r.normalized()
	den := s.Den()
	if den%r.den != 0 {
		return 0, false
	}
	return MulOK(r.num, den/r.den)
}

// MaxTick is the tick guard of the integer timescale: every value lowered
// onto a Scale must lie within ±MaxTick ticks. With frames of at most 2^20
// jobs, a sum of one such value per job stays below 2^60, far from int64
// overflow, so the tick engines add and compare without checks.
const MaxTick = int64(1) << 40

// GuardedTicks is Ticks restricted to the guard: ok is also false when
// |r| exceeds MaxTick ticks.
func (s Scale) GuardedTicks(r Rat) (int64, bool) {
	t, ok := s.Ticks(r)
	return t, ok && InTickRange(t)
}

// InTickRange reports whether a tick count lies within the guard.
func InTickRange(t int64) bool { return -MaxTick <= t && t <= MaxTick }

// FromTicks converts t ticks back to the exact rational t/den.
func (s Scale) FromTicks(t int64) Rat { return New(t, s.Den()) }

// MulOK returns a·b; ok is false when the product overflows int64.
func MulOK(a, b int64) (p int64, ok bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p = a * b
	if p/b != a || (a == math.MinInt64 && b == -1) {
		return 0, false
	}
	return p, true
}

// AddOK returns a+b; ok is false when the sum overflows int64.
func AddOK(a, b int64) (s int64, ok bool) {
	s = a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// String formats r as "n" for integers and "n/d" otherwise.
func (r Rat) String() string {
	r = r.normalized()
	if r.den == 1 {
		return strconv.FormatInt(r.num, 10)
	}
	return strconv.FormatInt(r.num, 10) + "/" + strconv.FormatInt(r.den, 10)
}

// Parse parses a rational from one of the forms "n", "n/d", or a decimal
// "i.f" (e.g. "1.25" = 5/4).
func Parse(s string) (Rat, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Rat{}, fmt.Errorf("rational: empty input")
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		num, err := strconv.ParseInt(s[:i], 10, 64)
		if err != nil {
			return Rat{}, fmt.Errorf("rational: bad numerator %q: %v", s[:i], err)
		}
		den, err := strconv.ParseInt(s[i+1:], 10, 64)
		if err != nil {
			return Rat{}, fmt.Errorf("rational: bad denominator %q: %v", s[i+1:], err)
		}
		if den == 0 {
			return Rat{}, fmt.Errorf("rational: zero denominator in %q", s)
		}
		// New negates both parts of num/-den and reduces via abs64, either
		// of which overflows at exactly MinInt64; reject at the boundary so
		// parsing returns errors, never panics.
		if num == math.MinInt64 || den == math.MinInt64 {
			return Rat{}, fmt.Errorf("rational: %q out of range", s)
		}
		return New(num, den), nil
	}
	if i := strings.IndexByte(s, '.'); i >= 0 {
		intPart, fracPart := s[:i], s[i+1:]
		if fracPart == "" {
			return Rat{}, fmt.Errorf("rational: bad decimal %q", s)
		}
		// 18 fractional digits is the most a 10^k denominator can carry in
		// an int64; longer inputs would overflow, so they are rejected
		// rather than trusted to the checked (panicking) arithmetic.
		if len(fracPart) > 18 {
			return Rat{}, fmt.Errorf("rational: decimal %q has too many fractional digits", s)
		}
		neg := strings.HasPrefix(intPart, "-")
		ip := int64(0)
		if intPart != "" && intPart != "-" && intPart != "+" {
			v, err := strconv.ParseInt(intPart, 10, 64)
			if err != nil {
				return Rat{}, fmt.Errorf("rational: bad decimal %q: %v", s, err)
			}
			if v == math.MinInt64 {
				return Rat{}, fmt.Errorf("rational: %q out of range", s)
			}
			ip = abs64(v)
		}
		fp, err := strconv.ParseInt(fracPart, 10, 64)
		if err != nil || fp < 0 {
			return Rat{}, fmt.Errorf("rational: bad decimal fraction %q", s)
		}
		den := int64(1)
		for range fracPart {
			den *= 10 // ≤ 10^18, cannot overflow
		}
		// The exact value is (ip*den + fp)/den; bound-check the numerator
		// instead of letting Add's checked arithmetic panic.
		if ip > (math.MaxInt64-fp)/den {
			return Rat{}, fmt.Errorf("rational: %q out of range", s)
		}
		r := New(ip*den+fp, den)
		if neg {
			r = r.Neg()
		}
		return r, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return Rat{}, fmt.Errorf("rational: bad integer %q: %v", s, err)
	}
	return FromInt(n), nil
}

// MustParse is like Parse but panics on error. It is intended for
// package-level constants and tests.
func MustParse(s string) Rat {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

// MarshalText implements encoding.TextMarshaler.
func (r Rat) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (r *Rat) UnmarshalText(text []byte) error {
	v, err := Parse(string(text))
	if err != nil {
		return err
	}
	*r = v
	return nil
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// uabs64 returns |a|, exact also for math.MinInt64.
func uabs64(a int64) uint64 {
	if a < 0 {
		return uint64(-a)
	}
	return uint64(a)
}

// gcd64 returns gcd(|a|, |b|), or 1 when both are zero. It is exact
// also for math.MinInt64; the one gcd beyond int64, 2^63 (both parts in
// {0, math.MinInt64}), comes back as math.MinInt64, which still divides
// both parts exactly.
func gcd64(a, b int64) int64 {
	x, y := uabs64(a), uabs64(b)
	for y != 0 {
		x, y = y, x%y
	}
	if x == 0 {
		return 1
	}
	return int64(x)
}

func addChecked(a, b int64) int64 {
	s, ok := AddOK(a, b)
	if !ok {
		panic(fmt.Sprintf("rational: integer overflow in %d + %d", a, b))
	}
	return s
}

func subChecked(a, b int64) int64 {
	d := a - b
	if (a >= 0 && b < 0 && d <= 0) || (a < 0 && b > 0 && d >= 0) {
		panic(fmt.Sprintf("rational: integer overflow in %d - %d", a, b))
	}
	return d
}

func mulChecked(a, b int64) int64 {
	p, ok := MulOK(a, b)
	if !ok {
		panic(fmt.Sprintf("rational: integer overflow in %d * %d", a, b))
	}
	return p
}

// floorQuot returns ⌊n/d⌋ for d > 0.
func floorQuot(n, d int64) int64 {
	q := n / d
	if n%d != 0 && (n < 0) != (d < 0) {
		q--
	}
	return q
}

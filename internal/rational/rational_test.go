package rational

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestNewNormalizes(t *testing.T) {
	t.Parallel()
	tests := []struct {
		num, den         int64
		wantNum, wantDen int64
	}{
		{1, 2, 1, 2},
		{2, 4, 1, 2},
		{-2, 4, -1, 2},
		{2, -4, -1, 2},
		{-2, -4, 1, 2},
		{0, 5, 0, 1},
		{6, 3, 2, 1},
		{200, 1000, 1, 5},
	}
	for _, tt := range tests {
		got := New(tt.num, tt.den)
		if got.Num() != tt.wantNum || got.Den() != tt.wantDen {
			t.Errorf("New(%d,%d) = %d/%d, want %d/%d",
				tt.num, tt.den, got.Num(), got.Den(), tt.wantNum, tt.wantDen)
		}
	}
}

func TestNewPanicsOnZeroDen(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("New(1, 0) did not panic")
		}
	}()
	New(1, 0)
}

func TestZeroValueIsZero(t *testing.T) {
	t.Parallel()
	var r Rat
	if !r.IsZero() {
		t.Error("zero value not IsZero")
	}
	if !r.Add(One).Equal(One) {
		t.Error("0 + 1 != 1 for zero value")
	}
	if r.String() != "0" {
		t.Errorf("zero value String = %q", r.String())
	}
	if r.Sign() != 0 {
		t.Error("zero value Sign != 0")
	}
}

func TestArithmetic(t *testing.T) {
	t.Parallel()
	half := New(1, 2)
	third := New(1, 3)
	tests := []struct {
		name string
		got  Rat
		want Rat
	}{
		{"add", half.Add(third), New(5, 6)},
		{"sub", half.Sub(third), New(1, 6)},
		{"mul", half.Mul(third), New(1, 6)},
		{"div", half.Div(third), New(3, 2)},
		{"neg", half.Neg(), New(-1, 2)},
		{"addNeg", half.Add(half.Neg()), Zero},
		{"mulInt", third.MulInt(6), FromInt(2)},
		{"divInt", FromInt(3).DivInt(2), New(3, 2)},
	}
	for _, tt := range tests {
		if !tt.got.Equal(tt.want) {
			t.Errorf("%s: got %v, want %v", tt.name, tt.got, tt.want)
		}
	}
}

func TestCmp(t *testing.T) {
	t.Parallel()
	tests := []struct {
		a, b Rat
		want int
	}{
		{New(1, 2), New(1, 3), 1},
		{New(1, 3), New(1, 2), -1},
		{New(2, 4), New(1, 2), 0},
		{New(-1, 2), New(1, 2), -1},
		{Zero, Zero, 0},
		{FromInt(-3), FromInt(-2), -1},
	}
	for _, tt := range tests {
		if got := tt.a.Cmp(tt.b); got != tt.want {
			t.Errorf("Cmp(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
	if !New(1, 3).Less(New(1, 2)) {
		t.Error("Less failed")
	}
	if !New(1, 2).LessEq(New(1, 2)) {
		t.Error("LessEq failed")
	}
}

func TestMinMax(t *testing.T) {
	t.Parallel()
	a, b := New(1, 3), New(1, 2)
	if !a.Min(b).Equal(a) || !b.Min(a).Equal(a) {
		t.Error("Min failed")
	}
	if !a.Max(b).Equal(b) || !b.Max(a).Equal(b) {
		t.Error("Max failed")
	}
}

func TestFloorCeil(t *testing.T) {
	t.Parallel()
	tests := []struct {
		r           Rat
		floor, ceil int64
	}{
		{New(7, 2), 3, 4},
		{New(-7, 2), -4, -3},
		{FromInt(5), 5, 5},
		{FromInt(-5), -5, -5},
		{Zero, 0, 0},
		{New(1, 3), 0, 1},
		{New(-1, 3), -1, 0},
	}
	for _, tt := range tests {
		if got := tt.r.Floor(); got != tt.floor {
			t.Errorf("Floor(%v) = %d, want %d", tt.r, got, tt.floor)
		}
		if got := tt.r.Ceil(); got != tt.ceil {
			t.Errorf("Ceil(%v) = %d, want %d", tt.r, got, tt.ceil)
		}
	}
}

func TestFloorDiv(t *testing.T) {
	t.Parallel()
	tests := []struct {
		r, s Rat
		want int64
	}{
		{FromInt(7), FromInt(2), 3},
		{FromInt(-1), FromInt(2), -1},
		{Milli(700), Milli(200), 3},
		{Zero, FromInt(5), 0},
		{New(5, 2), New(1, 2), 5},
	}
	for _, tt := range tests {
		if got := tt.r.FloorDiv(tt.s); got != tt.want {
			t.Errorf("FloorDiv(%v, %v) = %d, want %d", tt.r, tt.s, got, tt.want)
		}
	}
}

func TestLcm(t *testing.T) {
	t.Parallel()
	tests := []struct {
		a, b, want Rat
	}{
		{FromInt(4), FromInt(6), FromInt(12)},
		{Milli(200), Milli(100), Milli(200)},
		{Milli(200), Milli(700), Milli(1400)},
		{New(1, 2), New(1, 3), FromInt(1)},
		{New(3, 4), New(5, 6), New(15, 2)},
	}
	for _, tt := range tests {
		if got := Lcm(tt.a, tt.b); !got.Equal(tt.want) {
			t.Errorf("Lcm(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestLcmAllFMSHyperperiods(t *testing.T) {
	t.Parallel()
	// The FMS case study: lcm(200ms, 5000ms, 1600ms, 1000ms) = 40 s,
	// reduced to 10 s when MagnDeclin runs at 400 ms.
	orig := LcmAll([]Rat{Milli(200), Milli(5000), Milli(1600), Milli(1000)})
	if !orig.Equal(FromInt(40)) {
		t.Errorf("original FMS hyperperiod = %v, want 40", orig)
	}
	reduced := LcmAll([]Rat{Milli(200), Milli(5000), Milli(400), Milli(1000)})
	if !reduced.Equal(FromInt(10)) {
		t.Errorf("reduced FMS hyperperiod = %v, want 10", reduced)
	}
}

func TestLcmPanicsOnNonPositive(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Lcm(0, 1) did not panic")
		}
	}()
	Lcm(Zero, One)
}

func TestString(t *testing.T) {
	t.Parallel()
	tests := []struct {
		r    Rat
		want string
	}{
		{Zero, "0"},
		{One, "1"},
		{New(1, 2), "1/2"},
		{New(-3, 4), "-3/4"},
		{FromInt(200), "200"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("String(%v/%v) = %q, want %q", tt.r.Num(), tt.r.Den(), got, tt.want)
		}
	}
}

func TestParse(t *testing.T) {
	t.Parallel()
	tests := []struct {
		in   string
		want Rat
	}{
		{"0", Zero},
		{"42", FromInt(42)},
		{"-7", FromInt(-7)},
		{"1/2", New(1, 2)},
		{"-3/4", New(-3, 4)},
		{"6/4", New(3, 2)},
		{"3/-4", New(-3, 4)},
		{"1.25", New(5, 4)},
		{"-0.5", New(-1, 2)},
		{"0.2", New(1, 5)},
		{" 10 ", FromInt(10)},
	}
	for _, tt := range tests {
		got, err := Parse(tt.in)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", tt.in, err)
			continue
		}
		if !got.Equal(tt.want) {
			t.Errorf("Parse(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
	for _, bad := range []string{"", "a", "1/0", "1/b", "x/2", "1.", "1.x", "--3"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(num int64, den int64) bool {
		if den == 0 {
			den = 1
		}
		// Keep magnitudes modest to avoid overflow panics in the harness.
		num %= 1 << 30
		den %= 1 << 30
		if den == 0 {
			den = 1
		}
		r := New(num, den)
		got, err := Parse(r.String())
		return err == nil && got.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	t.Parallel()
	type wrap struct {
		T Rat `json:"t"`
	}
	in := wrap{T: New(3, 8)}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out wrap
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.T.Equal(in.T) {
		t.Errorf("round trip = %v, want %v", out.T, in.T)
	}
}

func TestFloat64(t *testing.T) {
	t.Parallel()
	if got := New(1, 4).Float64(); got != 0.25 {
		t.Errorf("Float64(1/4) = %v", got)
	}
	if got := Zero.Float64(); got != 0 {
		t.Errorf("Float64(0) = %v", got)
	}
}

// Property: field axioms on a bounded domain.
func TestFieldProperties(t *testing.T) {
	t.Parallel()
	gen := func(a, b int32, c uint8) Rat {
		den := int64(c%64) + 1
		return New(int64(a%10000), den).Add(FromInt(int64(b % 100)))
	}
	comm := func(a, b int32, c uint8, d, e int32, f uint8) bool {
		x, y := gen(a, b, c), gen(d, e, f)
		return x.Add(y).Equal(y.Add(x)) && x.Mul(y).Equal(y.Mul(x))
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	assoc := func(a, b int32, c uint8, d, e int32, f uint8, g, h int32, i uint8) bool {
		x, y, z := gen(a, b, c), gen(d, e, f), gen(g, h, i)
		return x.Add(y).Add(z).Equal(x.Add(y.Add(z)))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("associativity: %v", err)
	}
	distrib := func(a, b int32, c uint8, d, e int32, f uint8, g, h int32, i uint8) bool {
		x, y, z := gen(a, b, c), gen(d, e, f), gen(g, h, i)
		return x.Mul(y.Add(z)).Equal(x.Mul(y).Add(x.Mul(z)))
	}
	if err := quick.Check(distrib, nil); err != nil {
		t.Errorf("distributivity: %v", err)
	}
	inverse := func(a, b int32, c uint8) bool {
		x := gen(a, b, c)
		if x.IsZero() {
			return true
		}
		return x.Div(x).Equal(One) && x.Sub(x).IsZero()
	}
	if err := quick.Check(inverse, nil); err != nil {
		t.Errorf("inverse: %v", err)
	}
}

// Property: Lcm(a,b) is a common multiple and divides any common multiple
// within the sampled range.
func TestLcmProperty(t *testing.T) {
	t.Parallel()
	f := func(a, b uint16, c, d uint8) bool {
		x := New(int64(a%500)+1, int64(c%16)+1)
		y := New(int64(b%500)+1, int64(d%16)+1)
		l := Lcm(x, y)
		// l / x and l / y must be positive integers.
		qx, qy := l.Div(x), l.Div(y)
		return qx.IsInt() && qy.IsInt() && qx.Sign() > 0 && qy.Sign() > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverflowPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	big := FromInt(math.MaxInt64 / 2)
	_ = big.Mul(FromInt(4))
}

func TestFloorDivPanicsOnNonPositive(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	One.FloorDiv(Zero)
}

// reference implementations of the pre-fast-path arithmetic: general-case
// lcm-based addition and cross-multiplication comparison. The fast paths
// (same denominator, integers) must be indistinguishable from these.
func addReference(r, s Rat) Rat {
	g := gcd64(r.Den(), s.Den())
	db := r.Den() / g
	dd := s.Den() / g
	den := mulChecked(db, s.Den())
	num := addChecked(mulChecked(r.Num(), dd), mulChecked(s.Num(), db))
	return New(num, den)
}

func cmpReference(r, s Rat) int {
	g := gcd64(r.Den(), s.Den())
	lhs := mulChecked(r.Num(), s.Den()/g)
	rhs := mulChecked(s.Num(), r.Den()/g)
	switch {
	case lhs < rhs:
		return -1
	case lhs > rhs:
		return 1
	default:
		return 0
	}
}

// TestFastPathsMatchReference drives Add, Sub and Cmp through value pairs
// that hit every branch — both integers, equal denominators, coprime
// denominators, shared factors, negatives, zero — and checks each result
// against the general-path reference.
func TestFastPathsMatchReference(t *testing.T) {
	t.Parallel()
	vals := []Rat{
		Zero, One, FromInt(-1), FromInt(7), FromInt(-7), FromInt(200),
		New(1, 2), New(-1, 2), New(3, 2), New(1, 3), New(2, 3), New(-2, 3),
		New(1, 1000), New(7, 1000), New(-13, 1000), New(999, 1000),
		New(1, 6), New(5, 6), New(1, 10), New(3, 10), New(7, 10),
		Milli(100), Milli(200), Milli(700), Milli(-50),
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := a.Add(b), addReference(a, b); !got.Equal(want) {
				t.Errorf("%v + %v = %v, want %v", a, b, got, want)
			}
			if got, want := a.Sub(b), addReference(a, b.Neg()); !got.Equal(want) {
				t.Errorf("%v - %v = %v, want %v", a, b, got, want)
			}
			if got, want := a.Cmp(b), cmpReference(a, b); got != want {
				t.Errorf("Cmp(%v, %v) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestSameDenominatorReduction: a/d + b/d must still reduce, e.g.
// 1/6 + 1/6 = 1/3, and the sum of opposites is the canonical zero.
func TestSameDenominatorReduction(t *testing.T) {
	t.Parallel()
	if got := New(1, 6).Add(New(1, 6)); got.Num() != 1 || got.Den() != 3 {
		t.Errorf("1/6 + 1/6 = %v, want 1/3 in lowest terms", got)
	}
	if got := New(1, 6).Sub(New(1, 6)); !got.IsZero() || got.Den() != 1 {
		t.Errorf("1/6 - 1/6 = %d/%d, want canonical 0", got.Num(), got.Den())
	}
	if got := New(5, 6).Add(New(1, 6)); got.Num() != 1 || got.Den() != 1 {
		t.Errorf("5/6 + 1/6 = %v, want 1", got)
	}
}

// TestSubOverflowPanics: the same-denominator subtraction fast path keeps
// the checked-overflow contract of the general path.
func TestSubOverflowPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	_ = FromInt(math.MinInt64 + 1).Sub(FromInt(math.MaxInt64))
}

// TestLcmAllCached must agree with LcmAll on repeated folds (the memo is
// warm on the second call) and on the FMS period set.
func TestLcmAllCached(t *testing.T) {
	t.Parallel()
	sets := [][]Rat{
		{Milli(100), Milli(200), Milli(400)},
		{Milli(100), Milli(200), Milli(400), Milli(500), Milli(1000), FromInt(10)},
		{New(1, 3), New(1, 4), New(5, 6)},
	}
	for _, set := range sets {
		want := LcmAll(set)
		for pass := 0; pass < 2; pass++ {
			if got := LcmAllCached(set); !got.Equal(want) {
				t.Errorf("pass %d: LcmAllCached(%v) = %v, want %v", pass, set, got, want)
			}
		}
	}
}

func TestCommonScaleExactTicks(t *testing.T) {
	t.Parallel()
	sc, ok := CommonScale(
		[]Rat{Milli(250), New(1, 3)},
		[]Rat{New(7, 4), FromInt(2), {}}, // zero value counts as 0/1
	)
	if !ok {
		t.Fatal("CommonScale overflowed on millisecond-scale inputs")
	}
	if sc.Den() != 12 {
		t.Fatalf("Den = %d, want lcm(4,3,4,1,1) = 12", sc.Den())
	}
	for _, r := range []Rat{Milli(250), New(1, 3), New(7, 4), FromInt(2), Zero, New(-5, 6)} {
		ticks, ok := sc.Ticks(r)
		if !ok {
			t.Fatalf("Ticks(%v) not exact at den %d", r, sc.Den())
		}
		if back := sc.FromTicks(ticks); !back.Equal(r) {
			t.Fatalf("FromTicks(Ticks(%v)) = %v", r, back)
		}
		// Round trip must reproduce the normalized struct exactly, because
		// differential tests deep-equal schedules built on either timescale.
		if back := sc.FromTicks(ticks); back != r.normalized() {
			t.Fatalf("FromTicks(Ticks(%v)) = %#v, want normalized %#v", r, back, r.normalized())
		}
	}
}

func TestCommonScaleZeroValueScale(t *testing.T) {
	t.Parallel()
	var sc Scale // zero value: integer timescale
	if sc.Den() != 1 {
		t.Fatalf("zero-value Den = %d", sc.Den())
	}
	if ticks, ok := sc.Ticks(FromInt(41)); !ok || ticks != 41 {
		t.Fatalf("Ticks(41) = %d, %v", ticks, ok)
	}
	if _, ok := sc.Ticks(New(1, 2)); ok {
		t.Fatal("half-unit value claimed exact on the integer scale")
	}
}

func TestCommonScaleOverflow(t *testing.T) {
	t.Parallel()
	// Pairwise-coprime huge denominators force the LCM past int64.
	huge := []Rat{New(1, math.MaxInt64), New(1, math.MaxInt64-1), New(1, math.MaxInt64-2)}
	if _, ok := CommonScale(huge); ok {
		t.Fatal("CommonScale did not report overflow")
	}
	// A representable scale whose tick conversion overflows for a large
	// numerator must fail in Ticks, not panic.
	sc, ok := CommonScale([]Rat{New(1, 1<<20)})
	if !ok {
		t.Fatal("small scale rejected")
	}
	if _, ok := sc.Ticks(FromInt(math.MaxInt64 / 2)); ok {
		t.Fatal("Ticks did not report numerator overflow")
	}
}

func TestGuardedTicksBoundary(t *testing.T) {
	sc, ok := CommonScale([]Rat{New(1, 1000)})
	if !ok {
		t.Fatal("CommonScale failed")
	}
	if v, ok := sc.GuardedTicks(New(MaxTick, 1000)); !ok || v != MaxTick {
		t.Errorf("2^40 ticks: (%d, %v), want accepted", v, ok)
	}
	if _, ok := sc.GuardedTicks(New(-MaxTick, 1000)); !ok {
		t.Error("-2^40 ticks rejected")
	}
	if _, ok := sc.GuardedTicks(New(MaxTick+1, 1000)); ok {
		t.Error("2^40+1 ticks accepted")
	}
	if _, ok := sc.GuardedTicks(New(1, 3)); ok {
		t.Error("a value between ticks accepted")
	}
	if InTickRange(MaxTick+1) || InTickRange(-MaxTick-1) || !InTickRange(0) {
		t.Error("InTickRange misplaces the guard")
	}
}

package rational

import (
	"math"
	"math/big"
	"strings"
	"testing"
)

// FuzzParseRoundTrip checks the two parsing contracts on arbitrary input:
// Parse never panics (it returns errors, even for overflowing numerators,
// denominators and decimal expansions), and any value it accepts survives a
// String→Parse round trip exactly.
//
// Run with: go test ./internal/rational -fuzz FuzzParseRoundTrip
func FuzzParseRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"0", "1", "-1", "1/2", "-3/7", "10/4", "1.25", "-0.05", ".5", "-.5",
		"3.", "1/0", "0/0", "x", "1/2/3", " 7/3 ", "9223372036854775807",
		"-9223372036854775808", "1/-9223372036854775808",
		"0.000000000000000000001", "9223372036854775807.9", "+2", "--1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := Parse(s)
		if err != nil {
			return
		}
		if r.Den() <= 0 {
			t.Fatalf("Parse(%q) = %v with non-positive denominator", s, r)
		}
		text := r.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) = %v, but String %q does not reparse: %v", s, r, text, err)
		}
		if !back.Equal(r) {
			t.Fatalf("round trip broke: Parse(%q) = %v, reparsed %q = %v", s, r, text, back)
		}
		if strings.TrimSpace(s) == text {
			// Canonical inputs must be fixed points of the round trip.
			if back.String() != text {
				t.Fatalf("canonical form unstable: %q -> %q", text, back.String())
			}
		}
	})
}

// FuzzRatNew pins New to math/big on arbitrary numerator/denominator
// pairs, math.MinInt64 included: New returns big.Rat's lowest terms with a
// positive denominator whenever both parts fit int64, and panics exactly
// when they do not (or the denominator is zero). Neg of the result matches
// big.Rat.Neg and panics exactly when the negated numerator leaves int64.
//
// Run with: go test ./internal/rational -run '^$' -fuzz FuzzRatNew
func FuzzRatNew(f *testing.F) {
	for _, seed := range [][2]int64{
		{1, 2}, {-2, 4}, {2, -4}, {0, 5}, {3, 0},
		{math.MinInt64, 6}, {math.MinInt64, 3}, {math.MinInt64, -2}, {math.MinInt64, -1}, {math.MinInt64, math.MinInt64},
		{0, math.MinInt64}, {6, math.MinInt64}, {1, math.MinInt64},
		{math.MaxInt64, math.MinInt64}, {math.MaxInt64, -math.MaxInt64},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, num, den int64) {
		var want *big.Rat
		if den != 0 {
			want = big.NewRat(num, den)
		}
		fits := want != nil && want.Num().IsInt64() && want.Denom().IsInt64()
		var got Rat
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			got = New(num, den)
			return false
		}()
		if panicked {
			if fits {
				t.Fatalf("New(%d, %d) panicked; math/big says %v", num, den, want)
			}
			return
		}
		if !fits {
			t.Fatalf("New(%d, %d) = %v, but math/big's %v does not fit int64", num, den, got, want)
		}
		if got.Num() != want.Num().Int64() || got.Den() != want.Denom().Int64() {
			t.Fatalf("New(%d, %d) = %d/%d, math/big says %v", num, den, got.Num(), got.Den(), want)
		}
		wantNeg := new(big.Rat).Neg(want)
		var neg Rat
		panicked = func() (p bool) {
			defer func() { p = recover() != nil }()
			neg = got.Neg()
			return false
		}()
		if negFits := wantNeg.Num().IsInt64(); panicked == negFits {
			t.Fatalf("New(%d, %d).Neg(): panicked = %v, math/big says %v", num, den, panicked, wantNeg)
		}
		if !panicked && (neg.Num() != wantNeg.Num().Int64() || neg.Den() != wantNeg.Denom().Int64()) {
			t.Fatalf("New(%d, %d).Neg() = %d/%d, math/big says %v", num, den, neg.Num(), neg.Den(), wantNeg)
		}
	})
}

// FuzzRatCmp pins Cmp to math/big on arbitrary numerator/denominator
// pairs: the comparison is exact, so it must agree with big.Rat.Cmp and
// never panic, however large the cross products. Pairs with a zero
// denominator or math.MinInt64 in either part (which Parse rejects) are
// skipped.
//
// Run with: go test ./internal/rational -run '^$' -fuzz FuzzRatCmp
func FuzzRatCmp(f *testing.F) {
	for _, seed := range [][4]int64{
		{1, 2, 1, 3},
		{-1, 2, 1, 3},
		{0, 1, 0, 7},
		{1 << 40, 3, 1 << 40, 1<<24 + 1},
		{-(1 << 40), 3, -(1 << 40), 1<<24 + 1},
		{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 1, math.MaxInt64 - 2},
		{math.MaxInt64, 2, math.MaxInt64 - 2, 1},
		{-math.MaxInt64, 3, math.MaxInt64, -5},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, a, b, c, d int64) {
		for _, v := range []int64{a, b, c, d} {
			if v == math.MinInt64 {
				return
			}
		}
		if b == 0 || d == 0 {
			return
		}
		r, s := New(a, b), New(c, d)
		want := big.NewRat(a, b).Cmp(big.NewRat(c, d))
		if got := r.Cmp(s); got != want {
			t.Fatalf("(%v).Cmp(%v) = %d, math/big says %d", r, s, got, want)
		}
		if got := s.Cmp(r); got != -want {
			t.Fatalf("(%v).Cmp(%v) = %d, math/big says %d", s, r, got, -want)
		}
	})
}

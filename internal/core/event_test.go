package core

import (
	"strings"
	"testing"

	"repro/internal/rational"
)

func ms(n int64) Time { return rational.Milli(n) }

func TestGeneratorValidate(t *testing.T) {
	good := Generator{Kind: Periodic, Period: ms(200), Burst: 1, Deadline: ms(200)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid generator rejected: %v", err)
	}
	bad := []Generator{
		{Kind: Periodic, Period: rational.Zero, Burst: 1, Deadline: ms(1)},
		{Kind: Periodic, Period: ms(10), Burst: 0, Deadline: ms(1)},
		{Kind: Periodic, Period: ms(10), Burst: 1, Deadline: rational.Zero},
		{Kind: Sporadic, Period: ms(10).Neg(), Burst: 2, Deadline: ms(1)},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad generator %d accepted", i)
		}
	}
}

func TestGeneratorString(t *testing.T) {
	tests := []struct {
		g    Generator
		want string
	}{
		{Generator{Kind: Periodic, Period: ms(200), Burst: 1, Deadline: ms(200)}, "200ms"},
		{Generator{Kind: Periodic, Period: ms(200), Burst: 2, Deadline: ms(200)}, "2 per 200ms"},
		{Generator{Kind: Sporadic, Period: ms(700), Burst: 2, Deadline: ms(700)}, "sporadic 2 per 700ms"},
	}
	for _, tt := range tests {
		if got := tt.g.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// periodicJobTimes returns the invocation times of a one-process network
// with generator g over [0, horizon), read off the zero-delay job order.
func periodicJobTimes(t *testing.T, g Generator, horizon Time) []Time {
	t.Helper()
	n := NewNetwork("gen")
	n.AddProcess("p", g, ms(1), NopBehavior)
	o, err := JobOrder(n, []int{0}, horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	var times []Time
	for _, r := range o.Refs() {
		times = append(times, r.Time)
	}
	return times
}

func TestPeriodicTimes(t *testing.T) {
	g := Generator{Kind: Periodic, Period: ms(100), Burst: 1, Deadline: ms(100)}
	times := periodicJobTimes(t, g, ms(300))
	want := []Time{ms(0), ms(100), ms(200)}
	if len(times) != len(want) {
		t.Fatalf("got %d times, want %d", len(times), len(want))
	}
	for i := range want {
		if !times[i].Equal(want[i]) {
			t.Errorf("times[%d] = %v, want %v", i, times[i], want[i])
		}
	}
}

func TestPeriodicTimesBurst(t *testing.T) {
	g := Generator{Kind: Periodic, Period: ms(200), Burst: 2, Deadline: ms(200)}
	times := periodicJobTimes(t, g, ms(400))
	if len(times) != 4 {
		t.Fatalf("got %d times, want 4", len(times))
	}
	if !times[0].Equal(ms(0)) || !times[1].Equal(ms(0)) ||
		!times[2].Equal(ms(200)) || !times[3].Equal(ms(200)) {
		t.Errorf("burst times = %v", times)
	}
}

func TestPeriodicTimesHorizonExclusive(t *testing.T) {
	g := Generator{Kind: Periodic, Period: ms(100), Burst: 1, Deadline: ms(100)}
	times := periodicJobTimes(t, g, ms(200))
	if len(times) != 2 {
		t.Errorf("horizon must be exclusive: got %d times, want 2", len(times))
	}
}

func TestCheckSporadic(t *testing.T) {
	g := Generator{Kind: Sporadic, Period: ms(700), Burst: 2, Deadline: ms(700)}
	tests := []struct {
		name  string
		times []Time
		ok    bool
	}{
		{"empty", nil, true},
		{"single", []Time{ms(0)}, true},
		{"two simultaneous", []Time{ms(0), ms(0)}, true},
		{"three simultaneous", []Time{ms(0), ms(0), ms(0)}, false},
		{"two per window", []Time{ms(0), ms(300), ms(700), ms(1000)}, true},
		{"three in window", []Time{ms(0), ms(300), ms(600)}, false},
		{"boundary exactly period apart", []Time{ms(0), ms(350), ms(700)}, true},
		{"three strictly inside window", []Time{ms(0), ms(350), ms(699)}, false},
		{"unsorted", []Time{ms(300), ms(0)}, false},
		{"negative", []Time{ms(-1)}, false},
	}
	for _, tt := range tests {
		err := g.CheckSporadic(tt.times)
		if (err == nil) != tt.ok {
			t.Errorf("%s: CheckSporadic = %v, want ok=%v", tt.name, err, tt.ok)
		}
	}
}

func TestCheckSporadicWindowIsHalfOpen(t *testing.T) {
	// Events at 0, 300 and 700 with T=700, m=2: the window [0, 700)
	// contains events {0, 300} only, but [300, 1000) contains {300, 700}
	// — both within the burst bound, except the anchor at 0 also sees 300
	// and that's 2 <= m... then adding 700 makes [0,700) hold 2 and
	// [300,1000) hold 2 — still fine with m=2? No: [0,700) = {0,300},
	// [300,1000) = {300,700}, [700,1400) = {700}. All <= 2, so this trace
	// must be accepted: 700 is excluded from [0, 700).
	g := Generator{Kind: Sporadic, Period: ms(700), Burst: 2, Deadline: ms(700)}
	if err := g.CheckSporadic([]Time{ms(0), ms(300), ms(700)}); err != nil {
		t.Errorf("half-open window wrongly rejected boundary event: %v", err)
	}
}

func TestCheckSporadicOnPeriodic(t *testing.T) {
	g := Generator{Kind: Periodic, Period: ms(100), Burst: 1, Deadline: ms(100)}
	if err := g.CheckSporadic(nil); err == nil || !strings.Contains(err.Error(), "not sporadic") {
		t.Errorf("CheckSporadic on periodic generator: %v", err)
	}
}

func TestGenKindString(t *testing.T) {
	if Periodic.String() != "periodic" || Sporadic.String() != "sporadic" {
		t.Error("GenKind.String mismatch")
	}
}

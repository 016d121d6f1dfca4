package taskgraph

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/rational"
)

// single is a one-process network with period and deadline d and WCET 1:
// integer timing, so its tick is one time unit and d sits on the guard for
// d = 2^40.
func single(d int64) *core.Network {
	n := core.NewNetwork("single")
	n.AddPeriodic("p", rational.FromInt(d), rational.FromInt(d), rational.One, core.NopBehavior)
	n.Output("p", "OUT")
	return n
}

// TestTimescaleGuardBoundary: a period at 2^40 ticks derives, one tick
// more is rejected before anything is simulated, by LowerTiming and Derive
// alike.
func TestTimescaleGuardBoundary(t *testing.T) {
	tg, err := Derive(single(rational.MaxTick))
	if err != nil {
		t.Fatalf("period at 2^40 ticks: %v", err)
	}
	jt, err := tg.Ticks()
	if err != nil || jt.Deadline[0] != rational.MaxTick {
		t.Fatalf("tick table %+v, %v; want the deadline at 2^40 ticks", jt, err)
	}
	over := single(rational.MaxTick + 1)
	_, lerr := LowerTiming(over, rational.Zero)
	_, derr := Derive(over)
	for _, err := range []error{lerr, derr} {
		var te *TimescaleError
		if !errors.As(err, &te) || te.Kind != "process" || te.Subject != "p" {
			t.Errorf("period at 2^40+1 ticks: error %v, want a timescale error naming process p", err)
		}
	}
	// The slack extends the truncation horizon past the guard.
	if _, err := DeriveOpts(single(rational.MaxTick), Options{DeadlineSlack: rational.One}); !errors.As(err, new(*TimescaleError)) {
		t.Errorf("H + slack beyond 2^40 ticks: error %v, want a timescale error", err)
	}
}

// TestDeriveRejectsUnrepresentableTiming derives the smallest model with
// no int64 timescale: periods of 1 s and 2 s with one WCET of
// 1/(3·10^12) s, a 3-job frame whose H spans 6·10^12 ticks.
func TestDeriveRejectsUnrepresentableTiming(t *testing.T) {
	n := core.NewNetwork("fine")
	n.AddPeriodic("fast", rational.One, rational.One, rational.New(1, 3_000_000_000_000), core.NopBehavior)
	n.AddPeriodic("slow", rational.FromInt(2), rational.FromInt(2), rational.Milli(100), core.NopBehavior)
	if err := n.ValidateSchedulable(); err != nil {
		t.Fatalf("model must pass validation: %v", err)
	}
	_, err := Derive(n)
	var te *TimescaleError
	if !errors.As(err, &te) {
		t.Fatalf("Derive: error %v, want a timescale error", err)
	}
	if want := `taskgraph: process "fast" does not fit the integer timescale: period 1s is beyond 2^40 ticks of the 1/3000000000000 s timescale`; err.Error() != want {
		t.Errorf("error text\n%s\nwant\n%s", err, want)
	}
}

// TestTicksOfDerivedAndHandBuiltGraphs: the derived tick table holds the
// jobs' exact times, and a hand-built graph lowers its own values on first
// use, memoizing a typed error when they do not fit.
func TestTicksOfDerivedAndHandBuiltGraphs(t *testing.T) {
	tg, err := Derive(signal.New())
	if err != nil {
		t.Fatal(err)
	}
	jt, err := tg.Ticks()
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range tg.Jobs {
		if a, c, d := jt.Scale.FromTicks(jt.Arrival[i]), jt.Scale.FromTicks(jt.WCET[i]), jt.Scale.FromTicks(jt.Deadline[i]); !a.Equal(j.Arrival) || !c.Equal(j.WCET) || !d.Equal(j.Deadline) {
			t.Fatalf("job %s: ticks give (%v, %v, %v), job has (%v, %v, %v)", j.Name(), a, c, d, j.Arrival, j.WCET, j.Deadline)
		}
	}

	hand := &TaskGraph{Jobs: []*Job{
		{Proc: "a", K: 1, Arrival: rational.Zero, WCET: rational.New(1, 1<<40), Deadline: rational.One},
		{Proc: "b", K: 1, Arrival: rational.Zero, WCET: rational.New(1, (1<<40)-1), Deadline: rational.One},
	}}
	_, err = hand.Ticks()
	if !errors.As(err, new(*TimescaleError)) {
		t.Fatalf("coprime 2^40 denominators: error %v, want a timescale error", err)
	}
	if _, again := hand.Ticks(); again != err {
		t.Error("the lowering error is not memoized")
	}
}

// serverNet is a periodic user u with period tu and a sporadic process s
// with deadline d that u serves; WCETs are a quarter of tu.
func serverNet(tu, d rational.Rat) *core.Network {
	n := core.NewNetwork("server")
	n.AddPeriodic("u", tu, tu, tu.DivInt(4), core.NopBehavior)
	n.AddSporadic("s", 1, tu, d, tu.DivInt(4), core.NopBehavior)
	n.ConnectInit("s", "u", "c", 0)
	n.Priority("s", "u")
	n.Output("u", "OUT")
	return n
}

// TestDeriveServerPeriodOverflow: server periods whose exact arithmetic
// leaves int64 fail with a *TimescaleError instead of a panic. Comparing
// T_u = 2^40/3 s with d = 2^40/(2^24+1) s cross-multiplies to about 2^64;
// with T_u = 2^40 s and d = 2^-40 s the fraction T_u/q itself overflows.
func TestDeriveServerPeriodOverflow(t *testing.T) {
	for _, tc := range []struct {
		name          string
		tu, d         rational.Rat
		subject, text string
	}{
		{"compare", rational.New(1<<40, 3), rational.New(1<<40, 1<<24+1), "u",
			"period 1099511627776/3s is beyond 2^40 ticks"},
		{"fraction", rational.FromInt(1 << 40), rational.New(1, 1<<40), "s",
			"no fraction of the user period 1099511627776s below the deadline 1/1099511627776s fits int64"},
	} {
		_, err := Derive(serverNet(tc.tu, tc.d))
		var te *TimescaleError
		if !errors.As(err, &te) || te.Kind != "process" || te.Subject != tc.subject || !strings.Contains(te.Reason, tc.text) {
			t.Errorf("%s: error %v, want a timescale error on process %q containing %q", tc.name, err, tc.subject, tc.text)
		}
	}
}

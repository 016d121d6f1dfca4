// Differential harness for the heuristic portfolio, whose lanes run one
// after another on the caller's goroutine. FindFeasible must return the
// first feasible lane of RunPortfolio in Heuristics order, or an error
// wrapping the last lane's; Portfolio must return the lane the documented
// total order picks; and a task graph derived afresh must reproduce the
// portfolio schedule and the runtime report byte for byte. Checked on every
// registry application and on a corpus of random networks.
package integration

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/fft"
	"repro/internal/apps/fms"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/nettest"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// derive derives net's task graph, failing the test on error.
func derive(t *testing.T, net *core.Network) *taskgraph.TaskGraph {
	t.Helper()
	tg, err := taskgraph.Derive(net)
	if err != nil {
		t.Fatalf("derive: %v", err)
	}
	return tg
}

// scheduleJSON runs the heuristic portfolio and returns the winning
// schedule plus its canonical JSON serialization.
func scheduleJSON(t *testing.T, tg *taskgraph.TaskGraph, m int) (*sched.Schedule, string) {
	t.Helper()
	s, err := sched.Portfolio(tg, m, sched.PortfolioOptions{})
	if err != nil {
		t.Fatalf("portfolio: %v", err)
	}
	text, err := export.MarshalIndent(export.Schedule(s))
	if err != nil {
		t.Fatalf("marshal schedule: %v", err)
	}
	return s, text
}

// sameSchedule reports whether two schedules are the same heuristic's
// identical assignment.
func sameSchedule(a, b *sched.Schedule) bool {
	return a.Heuristic == b.Heuristic && a.M == b.M && reflect.DeepEqual(a.Assign, b.Assign)
}

// assertPortfolioContract checks FindFeasible and Portfolio against the
// lanes of RunPortfolio at m processors. (The case of an infeasible first
// lane before a feasible one, which no derived graph here produces, is
// pinned on a hand-built graph in internal/sched.)
func assertPortfolioContract(t *testing.T, tg *taskgraph.TaskGraph, m int) {
	t.Helper()
	lanes := sched.RunPortfolio(tg, m, sched.PortfolioOptions{})
	var first, best *sched.Schedule
	var lastErr error
	for i, r := range lanes {
		if r.Heuristic != sched.Heuristics[i] {
			t.Fatalf("m=%d lane %d is %v, want %v", m, i, r.Heuristic, sched.Heuristics[i])
		}
		if !r.Feasible {
			lastErr = r.Err
			continue
		}
		if first == nil {
			first = r.Schedule
		}
		if best == nil || r.Schedule.Makespan().Less(best.Makespan()) {
			best = r.Schedule
		}
	}

	got, err := sched.FindFeasible(tg, m)
	if first != nil {
		if err != nil || !sameSchedule(got, first) {
			t.Fatalf("m=%d: FindFeasible = (%v, %v), want the first feasible lane %v", m, got, err, first.Heuristic)
		}
	} else if !wrapsLane(err, lastErr) {
		t.Fatalf("m=%d: FindFeasible error %v, want one wrapping the last lane's %v", m, err, lastErr)
	}

	pick, err := sched.Portfolio(tg, m, sched.PortfolioOptions{})
	if best != nil {
		if err != nil || !sameSchedule(pick, best) {
			t.Fatalf("m=%d: Portfolio = (%v, %v), want the lane %v", m, pick, err, best.Heuristic)
		}
	} else if !wrapsLane(err, lastErr) {
		t.Fatalf("m=%d: Portfolio error %v, want one wrapping the last lane's %v", m, err, lastErr)
	}
}

// wrapsLane reports whether err directly wraps an error reading like the
// lane error want. Each run builds its own error values, so they compare
// by text.
func wrapsLane(err, want error) bool {
	inner := errors.Unwrap(err)
	return inner != nil && inner.Error() == want.Error()
}

// TestPortfolioContractRegistry holds FindFeasible and Portfolio to the
// portfolio lanes on every registry application at one to four
// processors.
func TestPortfolioContractRegistry(t *testing.T) {
	for _, name := range apps.Names() {
		net, err := apps.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		tg := derive(t, net)
		for m := 1; m <= 4; m++ {
			assertPortfolioContract(t, tg, m)
		}
	}
}

// portfolioReference is Portfolio's documented pick computed without its
// lanes: ListSchedule and Validate per heuristic, then the feasible
// schedule with the smallest rational Makespan, the earlier heuristic
// winning ties. It returns nil when no lane is feasible.
func portfolioReference(tg *taskgraph.TaskGraph, m int) *sched.Schedule {
	var best *sched.Schedule
	for _, h := range sched.Heuristics {
		s, err := sched.ListSchedule(tg, m, h)
		if err != nil || s.Validate() != nil {
			continue
		}
		if best == nil || s.Makespan().Less(best.Makespan()) {
			best = s
		}
	}
	return best
}

// TestPortfolioMatchesMakespanReference holds Portfolio, which compares
// makespans in ticks, to portfolioReference on every registry application
// at two to eight processors and on random networks.
func TestPortfolioMatchesMakespanReference(t *testing.T) {
	check := func(t *testing.T, tg *taskgraph.TaskGraph, m int) {
		t.Helper()
		want := portfolioReference(tg, m)
		got, err := sched.Portfolio(tg, m, sched.PortfolioOptions{})
		if (err == nil) != (want != nil) {
			t.Fatalf("m=%d: Portfolio error %v, reference found a schedule: %t", m, err, want != nil)
		}
		if want != nil && !sameSchedule(got, want) {
			t.Fatalf("m=%d: Portfolio picked %v (makespan %v), reference %v (makespan %v)",
				m, got.Heuristic, got.Makespan(), want.Heuristic, want.Makespan())
		}
	}
	for _, name := range apps.Names() {
		net, err := apps.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		tg := derive(t, net)
		for m := 2; m <= 8; m++ {
			check(t, tg, m)
		}
	}
	rng := rand.New(rand.NewSource(5151))
	for trial := 0; trial < trialCount(t, 50); trial++ {
		tg, err := taskgraph.Derive(nettest.Random(rng, nettest.Options{}))
		if err != nil {
			continue // generator produced a non-schedulable corner case
		}
		for _, m := range []int{1, 2, 3, len(tg.Jobs)} {
			check(t, tg, m)
		}
	}
}

// TestDifferentialPaperApps re-derives each paper application and checks
// that the portfolio schedule and the runtime report of its compiled plan
// come out byte-identical, and that the portfolio contract holds at one to
// four processors.
func TestDifferentialPaperApps(t *testing.T) {
	cases := []struct {
		name   string
		build  func() *core.Network
		m      int
		inputs map[string][]core.Value
	}{
		{"signal", signal.New, 2, signal.Inputs(2)},
		{"fft", fft.New, 2, fft.Inputs([]fft.Frame{{1, 2, 3, 4}, {5, 6, 7, 8}})},
		{"fft-overhead", fft.NewWithOverheadJob, 2, nil},
		{"fms", fms.New, 2, fms.Inputs(100)},
	}
	for _, app := range cases {
		app := app
		t.Run(app.name, func(t *testing.T) {
			t.Parallel()
			run := func() (string, string) {
				tg := derive(t, app.build())
				s, sJSON := scheduleJSON(t, tg, app.m)
				p, err := plan.Compile(s)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := p.Run(plan.Config{Frames: 2, Inputs: app.inputs})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				repJSON, err := export.MarshalIndent(export.Report(rep))
				if err != nil {
					t.Fatal(err)
				}
				return sJSON, repJSON
			}
			refS, refRep := run()
			s, rep := run()
			if s != refS {
				t.Fatal("schedule JSON differs between two derivations")
			}
			if rep != refRep {
				t.Fatal("runtime report JSON differs between two derivations")
			}
			tg := derive(t, app.build())
			for m := 1; m <= 4; m++ {
				assertPortfolioContract(t, tg, m)
			}
		})
	}
}

// TestDifferentialRandomNetworks sweeps ≥50 random networks: on each, the
// portfolio contract holds at one to four processors and at one processor
// per job, where the portfolio is feasible by construction.
func TestDifferentialRandomNetworks(t *testing.T) {
	trials := trialCount(t, 50)
	rng := rand.New(rand.NewSource(4242))
	nets := make([]*core.Network, trials)
	for i := range nets {
		nets[i] = nettest.Random(rng, nettest.Options{})
	}

	for trial, net := range nets {
		trial, net := trial, net
		t.Run(fmt.Sprintf("net%03d", trial), func(t *testing.T) {
			t.Parallel()
			tg := derive(t, net)
			for _, m := range []int{1, 2, 3, 4, len(tg.Jobs)} {
				assertPortfolioContract(t, tg, m)
			}
			scheduleJSON(t, tg, len(tg.Jobs))
		})
	}
}

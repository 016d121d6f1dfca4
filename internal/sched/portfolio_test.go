package sched

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/apps/fms"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/taskgraph"
)

func derive(t *testing.T, net *core.Network) *taskgraph.TaskGraph {
	t.Helper()
	tg, err := taskgraph.Derive(net)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func TestRunPortfolioCoversEveryHeuristicInOrder(t *testing.T) {
	t.Parallel()
	tg := derive(t, signal.New())
	results := RunPortfolio(tg, 2, PortfolioOptions{})
	if len(results) != len(Heuristics) {
		t.Fatalf("%d results for %d heuristics", len(results), len(Heuristics))
	}
	for i, r := range results {
		if r.Heuristic != Heuristics[i] {
			t.Fatalf("result %d is %v, want %v", i, r.Heuristic, Heuristics[i])
		}
		if r.Schedule == nil {
			t.Fatalf("%v: no schedule: %v", r.Heuristic, r.Err)
		}
		if r.Feasible != (r.Schedule.Validate() == nil) {
			t.Fatalf("%v: feasibility flag disagrees with Validate", r.Heuristic)
		}
	}
}

func TestPortfolioPicksMinimalMakespan(t *testing.T) {
	t.Parallel()
	for _, app := range []struct {
		name string
		tg   *taskgraph.TaskGraph
		m    int
	}{
		{"signal", derive(t, signal.New()), 2},
		{"fms", derive(t, fms.New()), 2},
	} {
		best, err := Portfolio(app.tg, app.m, PortfolioOptions{})
		if err != nil {
			t.Fatalf("%s: %v", app.name, err)
		}
		if err := best.Validate(); err != nil {
			t.Fatalf("%s: portfolio returned infeasible schedule: %v", app.name, err)
		}
		for _, r := range RunPortfolio(app.tg, app.m, PortfolioOptions{}) {
			if r.Feasible && r.Schedule.Makespan().Less(best.Makespan()) {
				t.Fatalf("%s: %v beats the portfolio pick (%v < %v)",
					app.name, r.Heuristic, r.Schedule.Makespan(), best.Makespan())
			}
		}
	}
}

func TestPortfolioLexicographicTieBreak(t *testing.T) {
	t.Parallel()
	tg := derive(t, signal.New())
	best, err := Portfolio(tg, 2, PortfolioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The winner must be the earliest heuristic among those reaching the
	// minimal makespan.
	for _, r := range RunPortfolio(tg, 2, PortfolioOptions{}) {
		if !r.Feasible {
			continue
		}
		if r.Schedule.Makespan().Equal(best.Makespan()) {
			if r.Heuristic != best.Heuristic {
				t.Fatalf("tie broken to %v, want earliest %v", best.Heuristic, r.Heuristic)
			}
			break
		}
	}
}

// skipFirstGraph is a two-processor instance on which ALAP-EDF, the first
// heuristic, misses a deadline and b-level, the second, does not. At 0
// ALAP-EDF starts the two 5 ms jobs P1 and P2 (latest finish 30 ms, ahead
// of Q's and R's 50 ms), so U, arriving at 1 ms with a 5 ms deadline,
// waits for a processor until 5 ms. B-level starts Q and R first (their
// successors lengthen their chains past P's), frees both processors at
// 1 ms and runs U, whose own successor gives it the longest chain, at once.
func skipFirstGraph() *taskgraph.TaskGraph {
	jobs := []*taskgraph.Job{
		{Proc: "P1", Deadline: ms(30), WCET: ms(5)},
		{Proc: "P2", Deadline: ms(30), WCET: ms(5)},
		{Proc: "Q", Deadline: ms(50), WCET: ms(1)},
		{Proc: "R", Deadline: ms(50), WCET: ms(1)},
		{Proc: "Qs", Deadline: ms(100), WCET: ms(6)},
		{Proc: "Rs", Deadline: ms(100), WCET: ms(6)},
		{Proc: "U", Arrival: ms(1), Deadline: ms(5), WCET: ms(4)},
		{Proc: "Us", Arrival: ms(1), Deadline: ms(100), WCET: ms(10)},
	}
	for i, j := range jobs {
		j.Index, j.K = i, 1
	}
	return &taskgraph.TaskGraph{
		Hyperperiod: ms(100),
		Jobs:        jobs,
		Succ:        [][]int{{}, {}, {4}, {5}, {}, {}, {7}, {}},
		Pred:        [][]int{{}, {}, {}, {}, {2}, {3}, {}, {6}},
	}
}

// TestFindFeasibleFirstFeasibleLane pins FindFeasible to the first
// feasible portfolio lane in preference order, past an infeasible first
// heuristic, and to the last lane's error when every lane misses.
func TestFindFeasibleFirstFeasibleLane(t *testing.T) {
	t.Parallel()
	tg := skipFirstGraph()
	lanes := RunPortfolio(tg, 2, PortfolioOptions{})
	if lanes[0].Heuristic != ALAPEDF || lanes[0].Feasible {
		t.Fatalf("lane 0: %v feasible=%v, want an infeasible ALAP-EDF lane", lanes[0].Heuristic, lanes[0].Feasible)
	}
	if lanes[1].Heuristic != BLevel || !lanes[1].Feasible {
		t.Fatalf("lane 1: %v feasible=%v (%v), want a feasible b-level lane", lanes[1].Heuristic, lanes[1].Feasible, lanes[1].Err)
	}
	got, err := FindFeasible(tg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Heuristic != BLevel || !reflect.DeepEqual(got.Assign, lanes[1].Schedule.Assign) {
		t.Fatalf("FindFeasible picked %v, want the b-level lane", got.Heuristic)
	}

	sig := derive(t, signal.New())
	lanes = RunPortfolio(sig, 1, PortfolioOptions{})
	_, err = FindFeasible(sig, 1)
	last := lanes[len(lanes)-1]
	if last.Feasible || err == nil || errors.Unwrap(err) == nil || errors.Unwrap(err).Error() != last.Err.Error() {
		t.Fatalf("FindFeasible error %v, want one wrapping the last lane's %v", err, last.Err)
	}
}

func TestPortfolioErrorWhenNothingFeasible(t *testing.T) {
	t.Parallel()
	tg := derive(t, fms.NewConfig(fms.Original()))
	// The original FMS graph is feasible on 1 processor, so force failure
	// with an absurd portfolio: restrict to one heuristic on a graph that
	// needs more processors than provided. The signal app needs 2.
	sig := derive(t, signal.New())
	if _, err := Portfolio(sig, 1, PortfolioOptions{}); err == nil {
		t.Fatal("expected error on underprovisioned processor count")
	}
	if _, err := Portfolio(tg, 1, PortfolioOptions{Heuristics: []Heuristic{ALAPEDF}}); err != nil {
		// Single-lane portfolio on a feasible instance must succeed.
		t.Fatalf("single-lane portfolio failed: %v", err)
	}
}

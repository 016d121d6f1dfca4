package sched

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/rational"
	"repro/internal/taskgraph"
)

// chainGraph hand-builds a three-job task graph A -> B, C independent, all
// arriving at 0 with 100 ms deadlines. Hand-built graphs bypass
// core.ValidateSchedulable, so they can probe corner cases derivation never
// produces (zero WCETs, corrupt assignments).
func chainGraph(wcetA Time) *taskgraph.TaskGraph {
	mk := func(i int, name string, wcet Time) *taskgraph.Job {
		return &taskgraph.Job{
			Index: i, Proc: name, K: 1,
			Arrival:  rational.Zero,
			Deadline: ms(100),
			WCET:     wcet,
		}
	}
	return &taskgraph.TaskGraph{
		Hyperperiod: ms(100),
		Jobs:        []*taskgraph.Job{mk(0, "A", wcetA), mk(1, "B", ms(10)), mk(2, "C", ms(10))},
		Succ:        [][]int{{1}, {}, {}},
		Pred:        [][]int{{}, {0}, {}},
	}
}

// TestStallErrorMatchesReference drives the engine into the stalled
// branch: a zero-WCET predecessor completes at the very instant it starts,
// so its successor becomes ready at a non-future instant and the engine
// cannot advance. The diagnostic must be the one the exact-rational
// rescanning scheduler reports (internal/integration compares the two
// engines live on the same graph).
func TestStallErrorMatchesReference(t *testing.T) {
	tg := chainGraph(rational.Zero) // A completes at its own start instant
	const want = "sched: scheduler stalled at 0 with 1/3 jobs placed"
	for _, h := range Heuristics {
		_, err := ListSchedule(tg, 1, h)
		if err == nil || err.Error() != want {
			t.Errorf("%v: stall error %v, want %q", h, err, want)
		}
	}
}

// boundaryGraph is one job with an integer deadline d, so its timescale is
// one tick per time unit and d ticks sit exactly at the guard for d = 2^40.
func boundaryGraph(d int64) *taskgraph.TaskGraph {
	return &taskgraph.TaskGraph{
		Hyperperiod: rational.FromInt(d),
		Jobs: []*taskgraph.Job{{Proc: "p", K: 1,
			Arrival: rational.Zero, Deadline: rational.FromInt(d), WCET: rational.One}},
		Succ: [][]int{{}},
		Pred: [][]int{{}},
	}
}

// TestListScheduleLoweringFallback pins the timescale boundary: a graph
// whose values reach exactly 2^40 ticks schedules, one tick more is
// rejected with the typed timescale error, and so is a graph whose
// denominators have no common int64 multiple. There is no rational
// fallback.
func TestListScheduleLoweringFallback(t *testing.T) {
	if _, err := ListSchedule(boundaryGraph(rational.MaxTick), 1, ALAPEDF); err != nil {
		t.Errorf("deadline at 2^40 ticks rejected: %v", err)
	}
	_, err := ListSchedule(boundaryGraph(rational.MaxTick+1), 1, ALAPEDF)
	if !errors.As(err, new(*taskgraph.TimescaleError)) {
		t.Errorf("deadline at 2^40+1 ticks: error %v, want a timescale error", err)
	}

	tg := chainGraph(ms(10))
	// Coprime near-2^40 denominators force the common denominator past
	// int64.
	tg.Jobs[1].WCET = rational.New(1, 1<<40)
	tg.Jobs[2].WCET = rational.New(1, (1<<40)-1)
	for _, w := range []int{1, 4} {
		for _, r := range RunPortfolio(tg, 2, PortfolioOptions{Workers: w}) {
			if r.Feasible || !errors.As(r.Err, new(*taskgraph.TimescaleError)) {
				t.Errorf("workers=%d lane %v: feasible=%v err=%v, want a timescale error", w, r.Heuristic, r.Feasible, r.Err)
			}
		}
	}
}

// validateWant runs Validate and fails unless it reports exactly want (""
// for a feasible schedule). The texts are those of the exact-rational
// checker that internal/integration runs against Validate.
func validateWant(t *testing.T, s *Schedule, want string) {
	t.Helper()
	err := s.Validate()
	if want == "" {
		if err != nil {
			t.Fatalf("feasible schedule rejected: %v", err)
		}
		return
	}
	if err == nil || err.Error() != want {
		t.Fatalf("violation %v, want %q", err, want)
	}
}

// TestValidateViolationClassesIntegerTimescale constructs one corrupt
// schedule per Definition 3.2 violation class and checks that the
// integer-timescale Validate rejects each with the exact diagnostic.
func TestValidateViolationClassesIntegerTimescale(t *testing.T) {
	tg := chainGraph(ms(10))
	tg.Jobs[1].Arrival = ms(5) // so a start below 5 is an arrival violation
	base := func() *Schedule {
		return &Schedule{TG: tg, M: 2, Assign: []Assignment{
			{Proc: 0, Start: rational.Zero}, // A: [0, 10)
			{Proc: 0, Start: ms(10)},        // B: [10, 20) after A
			{Proc: 1, Start: rational.Zero}, // C: [0, 10) alone on P1
		}}
	}
	validateWant(t, base(), "") // the uncorrupted schedule passes

	cases := []struct {
		name    string
		corrupt func(s *Schedule)
		want    string
	}{
		{"count", func(s *Schedule) { s.Assign = s.Assign[:2] }, "sched: 2 assignments for 3 jobs"},
		{"processor-range", func(s *Schedule) { s.Assign[0].Proc = 7 }, "sched: job A[1] mapped to processor 7 of 2"},
		{"arrival", func(s *Schedule) { s.Assign[1].Start = ms(2); s.Assign[1].Proc = 1 },
			"sched: job B[1] starts at 1/500 before arrival 1/200"},
		{"deadline", func(s *Schedule) { s.Assign[2].Start = ms(95) }, "sched: job C[1] misses deadline: ends 21/200 > 1/10"},
		{"precedence", func(s *Schedule) { s.Assign[1].Start = ms(7); s.Assign[1].Proc = 1 }, "sched: precedence A[1] -> B[1] violated"},
		{"overlap", func(s *Schedule) { s.Assign[2].Start = ms(5); s.Assign[2].Proc = 0 }, "sched: jobs A[1] and C[1] overlap on processor 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.corrupt(s)
			validateWant(t, s, tc.want)
		})
	}
}

// TestValidateFallbackOnUnscalableStart: start times are lowered onto the
// task graph's timescale, refined as far as they need; a start whose
// refinement pushes a value beyond the 2^40-tick guard, or which is itself
// beyond it, is a violation naming the job.
func TestValidateFallbackOnUnscalableStart(t *testing.T) {
	tg := chainGraph(ms(10)) // all values are multiples of 1/100 s
	s := &Schedule{TG: tg, M: 2, Assign: []Assignment{
		{Proc: 0, Start: rational.New(1, 1<<41)}, // needs a 1/(25·2^41) tick
		{Proc: 0, Start: ms(10)},
		{Proc: 1, Start: rational.Zero},
	}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), `job "A[1]" does not fit the integer timescale: deadline 1/10s is beyond 2^40 ticks`) {
		t.Errorf("start refining the timescale past the guard: %v, want a violation naming A[1]", err)
	}
	// 2^40 ticks of 1/100 s passes the lowering and then misses the
	// deadline; one tick more fails the lowering.
	s.Assign[0].Start = rational.New(rational.MaxTick, 100)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "misses deadline") {
		t.Errorf("start at 2^40 ticks: %v, want a deadline miss", err)
	}
	s.Assign[0].Start = rational.New(rational.MaxTick+1, 100)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), `job "A[1]" does not fit the integer timescale: start 1099511627777/100s is beyond`) {
		t.Errorf("start at 2^40+1 ticks: %v, want a violation naming A[1]", err)
	}
	// A start between the graph's ticks refines the timescale and is
	// checked exactly: 1/1000 s is a feasible start for A.
	s.Assign[0].Start = ms(1)
	s.Assign[1].Start = ms(11)
	if err := s.Validate(); err != nil {
		t.Errorf("start between ticks: %v, want feasible", err)
	}
}

// TestMinProcessorsMaxBound covers both edges of the search interval: the
// bound that admits a schedule exactly at max, and the bound below the
// utilization lower bound, where the loop body never runs.
func TestMinProcessorsMaxBound(t *testing.T) {
	tg := fig3Graph(t) // load 3/2: infeasible on 1, feasible on 2
	s, err := MinProcessors(tg, 2)
	if err != nil {
		t.Fatalf("feasible at the max bound rejected: %v", err)
	}
	if s.M != 2 {
		t.Errorf("MinProcessors(2) used %d processors", s.M)
	}
	if _, err := MinProcessors(tg, 1); err == nil ||
		!strings.Contains(err.Error(), "up to 1 processors") {
		t.Errorf("max below the utilization bound: %v", err)
	}
}

// TestFindFeasibleAllHeuristicsMiss: when every portfolio lane misses a
// deadline, FindFeasible reports the failure and wraps the last lane's
// validation error.
func TestFindFeasibleAllHeuristicsMiss(t *testing.T) {
	tg := fig3Graph(t)
	_, err := FindFeasible(tg, 1) // load 3/2 > 1: every heuristic misses
	if err == nil {
		t.Fatal("uniprocessor schedule claimed feasible despite load 1.5")
	}
	if !strings.Contains(err.Error(), "no heuristic found a feasible schedule on 1 processors") {
		t.Errorf("summary error missing: %v", err)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("last lane's deadline miss not wrapped: %v", err)
	}
}

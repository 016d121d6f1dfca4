package sched

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
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
	for _, r := range RunPortfolio(tg, 2, PortfolioOptions{}) {
		if r.Feasible || !errors.As(r.Err, new(*taskgraph.TimescaleError)) {
			t.Errorf("lane %v: feasible=%v err=%v, want a timescale error", r.Heuristic, r.Feasible, r.Err)
		}
	}
}

// placement is a schedule's processors and rational start times, the
// input of FromStarts.
type placement struct {
	procs  []int
	starts []Time
}

// validateWant builds the schedule with FromStarts and validates it, and
// fails unless the first error is exactly want ("" for a feasible
// schedule). The texts are those of the exact-rational checker that
// internal/integration runs against Validate.
func validateWant(t *testing.T, tg *taskgraph.TaskGraph, m int, pl placement, want string) {
	t.Helper()
	s, err := FromStarts(tg, m, ALAPEDF, pl.procs, pl.starts)
	if err == nil {
		err = s.Validate()
	}
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
// Starts between the graph's 5 ms ticks (2 ms, 7 ms) refine the table.
func TestValidateViolationClassesIntegerTimescale(t *testing.T) {
	tg := chainGraph(ms(10))
	tg.Jobs[1].Arrival = ms(5) // so a start below 5 is an arrival violation
	base := func() placement {
		return placement{
			procs:  []int{0, 0, 1},
			starts: []Time{rational.Zero, ms(10), rational.Zero}, // A: [0, 10), B: [10, 20) after A, C: [0, 10) alone on P1
		}
	}
	validateWant(t, tg, 2, base(), "") // the uncorrupted schedule passes

	cases := []struct {
		name    string
		corrupt func(pl *placement)
		want    string
	}{
		{"count", func(pl *placement) { pl.procs, pl.starts = pl.procs[:2], pl.starts[:2] }, "sched: 2 assignments for 3 jobs"},
		{"processor-range", func(pl *placement) { pl.procs[0] = 7 }, "sched: job A[1] mapped to processor 7 of 2"},
		{"arrival", func(pl *placement) { pl.starts[1] = ms(2); pl.procs[1] = 1 },
			"sched: job B[1] starts at 1/500 before arrival 1/200"},
		{"deadline", func(pl *placement) { pl.starts[2] = ms(95) }, "sched: job C[1] misses deadline: ends 21/200 > 1/10"},
		{"precedence", func(pl *placement) { pl.starts[1] = ms(7); pl.procs[1] = 1 }, "sched: precedence A[1] -> B[1] violated"},
		{"overlap", func(pl *placement) { pl.starts[2] = ms(5); pl.procs[2] = 0 }, "sched: jobs A[1] and C[1] overlap on processor 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := base()
			tc.corrupt(&pl)
			validateWant(t, tg, 2, pl, tc.want)
		})
	}
	// The same count violation on a schedule whose slice is cut after
	// construction is Validate's.
	s, err := FromStarts(tg, 2, ALAPEDF, base().procs, base().starts)
	if err != nil {
		t.Fatal(err)
	}
	s.Assign = s.Assign[:2]
	if err := s.Validate(); err == nil || err.Error() != "sched: 2 assignments for 3 jobs" {
		t.Errorf("cut assignment slice: %v", err)
	}
}

// TestValidateFallbackOnUnscalableStart: FromStarts lowers the start times
// onto the task graph's timescale, refined as far as they need; a start
// whose refinement pushes a value beyond the 2^40-tick guard, or which is
// itself beyond it, is an error naming the job.
func TestValidateFallbackOnUnscalableStart(t *testing.T) {
	tg := chainGraph(ms(10)) // all values are multiples of 1/100 s
	procs := []int{0, 0, 1}
	build := func(a, b Time) (*Schedule, error) {
		return FromStarts(tg, 2, ALAPEDF, procs, []Time{a, b, rational.Zero})
	}
	if _, err := build(rational.New(1, 1<<41), ms(10)); err == nil || // needs a 1/(25·2^41) tick
		!strings.Contains(err.Error(), `job "A[1]" does not fit the integer timescale: deadline 1/10s is beyond 2^40 ticks`) {
		t.Errorf("start refining the timescale past the guard: %v, want an error naming A[1]", err)
	}
	// 2^40 ticks of 1/100 s passes the lowering and then misses the
	// deadline; one tick more fails the lowering.
	s, err := build(rational.New(rational.MaxTick, 100), ms(10))
	if err != nil {
		t.Fatalf("start at 2^40 ticks: %v", err)
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "misses deadline") {
		t.Errorf("start at 2^40 ticks: %v, want a deadline miss", err)
	}
	if _, err := build(rational.New(rational.MaxTick+1, 100), ms(10)); err == nil ||
		!strings.Contains(err.Error(), `job "A[1]" does not fit the integer timescale: start 1099511627777/100s is beyond`) {
		t.Errorf("start at 2^40+1 ticks: %v, want an error naming A[1]", err)
	}
	// A start between the graph's ticks refines the timescale and is
	// checked exactly: 1/1000 s is a feasible start for A.
	s, err = build(ms(1), ms(11))
	if err != nil {
		t.Fatalf("start between ticks: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("start between ticks: %v, want feasible", err)
	}
	if jt, _ := s.Ticks(); jt.Scale.Den() != 1000 || !s.StartTime(1).Equal(ms(11)) || !s.End(0).Equal(ms(11)) {
		t.Errorf("refined table 1/%d s, B starts %v, A ends %v; want 1/1000 s, 11/1000, 11/1000",
			jt.Scale.Den(), s.StartTime(1), s.End(0))
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

// TestSortedByKeyMatchesStableSort pins sortedByKey's radix and presorted
// paths to a comparison sort on (key, index): random keys over narrow and
// full int64 ranges with ties, the extremes, constant, sorted and reversed
// slices.
func TestSortedByKeyMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := [][]int64{nil, {7}, {3, 3, 3}, {2, 1}, {9, 1, 2, 3}, {1, 2, 3, 0},
		{math.MaxInt64, math.MinInt64, 0, -1, 1, math.MinInt64}}
	for trial := 0; trial < 300; trial++ {
		key := make([]int64, rng.Intn(600))
		for i := range key {
			switch trial % 3 {
			case 0:
				key[i] = rng.Int63n(20) - 10
			case 1:
				key[i] = int64(rng.Uint64())
			default:
				key[i] = rng.Int63n(1 << 40)
			}
		}
		cases = append(cases, key)
		if trial%10 == 0 {
			asc := slices.Clone(key)
			slices.Sort(asc)
			cases = append(cases, asc, slices.Clone(asc))
			slices.Reverse(cases[len(cases)-1])
		}
	}
	for ci, key := range cases {
		want := make([]int32, len(key))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(key[a], key[b]) })
		if got := sortedByKey(key); !slices.Equal(got, want) {
			t.Fatalf("case %d (%d keys): sortedByKey %v, want %v", ci, len(key), got, want)
		}
	}
}

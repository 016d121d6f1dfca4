// Differential harness for the event-driven list scheduler: on every input
// the integer-timescale engine (sched.ListSchedule) must reproduce the
// rational-rescan reference (listScheduleReference) exactly — the
// same processor assignments, the same start times, the same tie-breaks —
// and the integer-timescale feasibility checker must reach the same
// verdict as its rational oracle. Checked on the three paper applications
// and on a corpus of random networks, for every heuristic and a sweep of
// processor counts.
package integration

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apps/fft"
	"repro/internal/apps/fms"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/nettest"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// assertSchedulePair runs both engines on (tg, m, h) and fails unless the
// schedules are deep-equal and the feasibility verdicts coincide.
func assertSchedulePair(t *testing.T, tg *taskgraph.TaskGraph, m int, h sched.Heuristic) {
	t.Helper()
	got, gotErr := sched.ListSchedule(tg, m, h)
	want, wantErr := listScheduleReference(tg, m, h)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("m=%d h=%v: error mismatch: event-driven %v, reference %v", m, h, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("m=%d h=%v: error text mismatch:\nevent-driven: %v\nreference:    %v",
				m, h, gotErr, wantErr)
		}
		return
	}
	if got.Heuristic != h || !matchesRef(got, want) {
		for i := range want.procs {
			if got.Assign[i].Proc != want.procs[i] || !got.StartTime(i).Equal(want.starts[i]) {
				t.Fatalf("m=%d h=%v: job %s placed at (proc %d, start %v), reference (proc %d, start %v)",
					m, h, tg.Jobs[i].Name(),
					got.Assign[i].Proc, got.StartTime(i),
					want.procs[i], want.starts[i])
			}
		}
		t.Fatalf("m=%d h=%v: schedules diverge outside assignments", m, h)
	}
	gotV, wantV := got.Validate(), validateReference(want)
	if (gotV == nil) != (wantV == nil) {
		t.Fatalf("m=%d h=%v: validation verdict mismatch: integer %v, rational %v", m, h, gotV, wantV)
	}
	if gotV != nil && gotV.Error() != wantV.Error() {
		t.Fatalf("m=%d h=%v: validation text mismatch:\ninteger:  %v\nrational: %v", m, h, gotV, wantV)
	}
}

// TestSchedDifferentialPaperApps pins the event-driven scheduler to the
// reference on the three applications of the paper, across every heuristic
// and processor counts from serialized (m=1, where deadline misses are
// expected and both validators must report them identically) up to the
// paper's platform size.
func TestSchedDifferentialPaperApps(t *testing.T) {
	apps := []struct {
		name  string
		build func() *core.Network
	}{
		{"signal", signal.New},
		{"fft", fft.New},
		{"fft-overhead", fft.NewWithOverheadJob},
		{"fms", fms.New},
	}
	for _, app := range apps {
		app := app
		t.Run(app.name, func(t *testing.T) {
			t.Parallel()
			tg, err := taskgraph.Derive(app.build())
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range sched.Heuristics {
				for m := 1; m <= 3; m++ {
					assertSchedulePair(t, tg, m, h)
				}
			}
		})
	}
}

// TestSchedDifferentialRandomNetworks sweeps ≥50 random networks through
// both engines for every heuristic at three processor counts: serialized,
// contended, and one processor per job.
func TestSchedDifferentialRandomNetworks(t *testing.T) {
	trials := trialCount(t, 50)
	rng := rand.New(rand.NewSource(1337))
	for trial := 0; trial < trials; trial++ {
		net := nettest.Random(rng, nettest.Options{})
		trial := trial
		t.Run(fmt.Sprintf("net%03d", trial), func(t *testing.T) {
			t.Parallel()
			tg, err := taskgraph.Derive(net)
			if err != nil {
				t.Skip() // generator produced a non-schedulable corner case
			}
			for _, h := range sched.Heuristics {
				for _, m := range []int{1, 2, len(tg.Jobs)} {
					assertSchedulePair(t, tg, m, h)
				}
			}
		})
	}
}

// TestSchedDifferentialPortfolioLanes checks that the shared-precompute
// portfolio returns lane-for-lane the results of the self-contained
// ListSchedule followed by Validate — the same verdicts, error texts and
// schedules, m < 1 included.
func TestSchedDifferentialPortfolioLanes(t *testing.T) {
	tg, err := taskgraph.Derive(fms.New())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{0, 1, 2, 3} {
		ref := make([]sched.HeuristicResult, len(sched.Heuristics))
		for i, h := range sched.Heuristics {
			ref[i].Heuristic = h
			ref[i].Schedule, ref[i].Err = sched.ListSchedule(tg, m, h)
			if ref[i].Err == nil {
				ref[i].Err = ref[i].Schedule.Validate()
				ref[i].Feasible = ref[i].Err == nil
			}
		}
		got := sched.RunPortfolio(tg, m, sched.PortfolioOptions{})
		if len(got) != len(ref) {
			t.Fatalf("m=%d: %d lanes, reference has %d", m, len(got), len(ref))
		}
		for i := range ref {
			if got[i].Heuristic != ref[i].Heuristic || got[i].Feasible != ref[i].Feasible {
				t.Fatalf("m=%d lane %d: (%v feasible=%t), reference (%v feasible=%t)",
					m, i, got[i].Heuristic, got[i].Feasible, ref[i].Heuristic, ref[i].Feasible)
			}
			if (got[i].Err == nil) != (ref[i].Err == nil) {
				t.Fatalf("m=%d lane %d: err %v, reference %v", m, i, got[i].Err, ref[i].Err)
			}
			if got[i].Err != nil && got[i].Err.Error() != ref[i].Err.Error() {
				t.Fatalf("m=%d lane %d: err text %q, reference %q", m, i, got[i].Err, ref[i].Err)
			}
			if (got[i].Schedule == nil) != (ref[i].Schedule == nil) ||
				ref[i].Schedule != nil && !reflect.DeepEqual(got[i].Schedule.Assign, ref[i].Schedule.Assign) {
				t.Fatalf("m=%d lane %d (%v): schedule differs from reference", m, i, ref[i].Heuristic)
			}
		}
	}
}

// TestSchedDifferentialHandBuilt covers what derivation never produces: a
// zero-WCET predecessor that stalls both engines, and one corrupt schedule
// per Definition 3.2 violation class, some with starts between the task
// graph's ticks. Engines and validators must agree verdict for verdict and
// text for text.
func TestSchedDifferentialHandBuilt(t *testing.T) {
	ms := rational.Milli
	chain := func(wcetA rational.Rat) *taskgraph.TaskGraph {
		mk := func(i int, name string, wcet rational.Rat) *taskgraph.Job {
			return &taskgraph.Job{Index: i, Proc: name, K: 1,
				Arrival: rational.Zero, Deadline: ms(100), WCET: wcet}
		}
		return &taskgraph.TaskGraph{
			Hyperperiod: ms(100),
			Jobs:        []*taskgraph.Job{mk(0, "A", wcetA), mk(1, "B", ms(10)), mk(2, "C", ms(10))},
			Succ:        [][]int{{1}, {}, {}},
			Pred:        [][]int{{}, {0}, {}},
		}
	}
	stalled := chain(rational.Zero)
	for _, h := range sched.Heuristics {
		assertSchedulePair(t, stalled, 1, h)
	}

	tg := chain(ms(10))
	tg.Jobs[1].Arrival = ms(5)
	corrupt := []func(s *refSchedule){
		func(s *refSchedule) {},
		func(s *refSchedule) { s.procs, s.starts = s.procs[:2], s.starts[:2] },
		func(s *refSchedule) { s.procs[0] = 7 },
		func(s *refSchedule) { s.starts[1] = ms(2); s.procs[1] = 1 },
		func(s *refSchedule) { s.starts[2] = ms(95) },
		func(s *refSchedule) { s.starts[1] = ms(7); s.procs[1] = 1 },
		func(s *refSchedule) { s.starts[2] = ms(5); s.procs[2] = 0 },
		func(s *refSchedule) { s.starts[0] = ms(1); s.starts[1] = ms(11) },
	}
	for i, c := range corrupt {
		r := &refSchedule{tg: tg, m: 2, procs: []int{0, 0, 1}, starts: []rational.Rat{rational.Zero, ms(10), rational.Zero}}
		c(r)
		// FromStarts lowers the starts; Validate checks the placement.
		s, got := sched.FromStarts(tg, r.m, sched.ALAPEDF, r.procs, r.starts)
		if got == nil {
			got = s.Validate()
		}
		want := validateReference(r)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Errorf("case %d: Validate %v, rational oracle %v", i, got, want)
		}
	}
}

// TestSchedDifferentialOutOfOrderArrivals hand-builds task graphs whose
// arrivals decrease along the index order in places, with ties, so the
// engine's presorted arrival walk must release jobs in the (arrival,
// index) order a rescanning scheduler sees. One variant stalls on a
// zero-WCET predecessor after the last arrival.
func TestSchedDifferentialOutOfOrderArrivals(t *testing.T) {
	ms := rational.Milli
	build := func(wcet0 rational.Rat) *taskgraph.TaskGraph {
		arrivals := []int64{40, 0, 20, 0, 10, 20, 5}
		jobs := make([]*taskgraph.Job, len(arrivals))
		for i, a := range arrivals {
			wcet := ms(10)
			if i == 0 {
				wcet = wcet0
			}
			jobs[i] = &taskgraph.Job{Index: i, Proc: string(rune('A' + i)), K: 1,
				Arrival: ms(a), Deadline: ms(100), WCET: wcet}
		}
		return &taskgraph.TaskGraph{
			Hyperperiod: ms(100),
			Jobs:        jobs,
			Succ:        [][]int{{5, 6}, {2}, {}, {4}, {}, {}, {}},
			Pred:        [][]int{{}, {}, {1}, {}, {3}, {0}, {0}},
		}
	}
	for _, tg := range []*taskgraph.TaskGraph{build(ms(10)), build(rational.Zero)} {
		for _, h := range sched.Heuristics {
			for m := 1; m <= 3; m++ {
				assertSchedulePair(t, tg, m, h)
			}
		}
	}
}

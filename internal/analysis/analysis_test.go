package analysis

import (
	"strings"
	"testing"

	"repro/internal/apps/fms"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

func ms(n int64) Time { return rational.Milli(n) }

func TestStatsAndCompare(t *testing.T) {
	tg, err := taskgraph.Derive(signal.New())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.FindFeasible(tg, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := Stats(s)
	if !st.Feasible || st.Misses != 0 {
		t.Errorf("stats of feasible schedule: %+v", st)
	}
	// 10 jobs × 25 ms = 250 ms busy over 2 × 200 ms: utilization 5/8.
	if !st.Utilization.Equal(rational.New(5, 8)) {
		t.Errorf("utilization = %v, want 5/8", st.Utilization)
	}
	if st.MinSlack.Sign() < 0 {
		t.Errorf("negative slack on feasible schedule: %v", st.MinSlack)
	}
	if st.String() == "" {
		t.Error("empty stats string")
	}

	stats, err := CompareHeuristics(tg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(sched.Heuristics) {
		t.Fatalf("%d rows, want %d", len(stats), len(sched.Heuristics))
	}
	table := Table(stats)
	if table == "" {
		t.Error("empty table")
	}
}

func TestCompareHeuristicsFMS(t *testing.T) {
	tg, err := taskgraph.Derive(fms.New())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := CompareHeuristics(tg, 1)
	if err != nil {
		t.Fatal(err)
	}
	feasibleCount := 0
	for _, st := range stats {
		if st.Feasible {
			feasibleCount++
		}
	}
	if feasibleCount == 0 {
		t.Error("no heuristic schedules the FMS feasibly on one processor at load 0.23")
	}
}

// Stats must tolerate a schedule with no jobs at all: every aggregate
// stays at its zero value and the zero-length frame does not divide.
func TestStatsEmptySchedule(t *testing.T) {
	tg := &taskgraph.TaskGraph{Hyperperiod: ms(0)}
	s := &sched.Schedule{TG: tg, M: 2}
	st := Stats(s)
	if st.Misses != 0 || st.Makespan.Sign() != 0 {
		t.Errorf("empty schedule stats: %+v", st)
	}
	if st.Utilization.Sign() != 0 {
		t.Errorf("utilization with zero-length frame = %v, want 0", st.Utilization)
	}
	if len(st.PerProcBusy) != 2 {
		t.Fatalf("PerProcBusy length %d, want 2", len(st.PerProcBusy))
	}
	for p, busy := range st.PerProcBusy {
		if busy.Sign() != 0 {
			t.Errorf("processor %d busy %v with no jobs", p, busy)
		}
	}
	if st.MinSlack.Sign() != 0 {
		t.Errorf("MinSlack = %v with no jobs, want 0", st.MinSlack)
	}
	if st.Jobs != 0 {
		t.Errorf("Jobs = %d with no jobs", st.Jobs)
	}
	if slack, ok := st.Slack(); ok {
		t.Errorf("Slack() = %v, true with no jobs, want undefined", slack)
	}
	if !strings.Contains(st.String(), "minSlack=n/a") {
		t.Errorf("String() = %q, want an n/a slack rendering", st.String())
	}
	if st.String() == "" || Table([]SchedStats{st}) == "" {
		t.Error("empty schedule does not render")
	}
}

// The single-processor path: one process, one job per frame, M = 1.
func TestStatsSingleProcessor(t *testing.T) {
	net := core.NewNetwork("solo")
	net.AddPeriodic("only", ms(100), ms(100), ms(10), nil)
	tg, err := taskgraph.Derive(net)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.FindFeasible(tg, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := Stats(s)
	if st.Processors != 1 || len(st.PerProcBusy) != 1 {
		t.Fatalf("single-processor stats: %+v", st)
	}
	if !st.Feasible || st.Misses != 0 {
		t.Errorf("trivial schedule infeasible: %+v", st)
	}
	if !st.PerProcBusy[0].Equal(ms(10)) {
		t.Errorf("busy = %v, want 10ms", st.PerProcBusy[0])
	}
	if !st.Utilization.Equal(rational.New(1, 10)) {
		t.Errorf("utilization = %v, want 1/10", st.Utilization)
	}
	if !st.MinSlack.Equal(ms(90)) {
		t.Errorf("MinSlack = %v, want 90ms", st.MinSlack)
	}
	if slack, ok := st.Slack(); !ok || !slack.Equal(ms(90)) {
		t.Errorf("Slack() = %v (ok=%v), want 90ms, true", slack, ok)
	}
}

package sched

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/rational"
	"repro/internal/taskgraph"
)

func ms(n int64) Time { return rational.Milli(n) }

func fig3Graph(t *testing.T) *taskgraph.TaskGraph {
	t.Helper()
	tg, err := taskgraph.Derive(signal.New())
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// TestFig4TwoProcessorSchedule reproduces Fig. 4: the Fig. 3 task graph
// admits a feasible static schedule on two processors within the 200 ms
// frame.
func TestFig4TwoProcessorSchedule(t *testing.T) {
	tg := fig3Graph(t)
	s, err := ListSchedule(tg, 2, ALAPEDF)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("two-processor schedule infeasible: %v\n%s", err, s.Table())
	}
	if misses := s.Misses(); len(misses) != 0 {
		t.Errorf("deadline misses on 2 processors: %v", misses)
	}
	if mk := s.Makespan(); ms(200).Less(mk) {
		t.Errorf("makespan %v exceeds the frame", mk)
	}
}

// TestFig3OneProcessorInfeasible: load 3/2 > 1, so no heuristic can build a
// feasible uniprocessor schedule for the Fig. 3 graph.
func TestFig3OneProcessorInfeasible(t *testing.T) {
	tg := fig3Graph(t)
	for _, h := range Heuristics {
		s, err := ListSchedule(tg, 1, h)
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if err := s.Validate(); err == nil {
			t.Errorf("%v: uniprocessor schedule claimed feasible despite load 1.5", h)
		}
		if len(s.Misses()) == 0 {
			t.Errorf("%v: no deadline misses reported on one processor", h)
		}
	}
}

func TestFindFeasibleAndMinProcessors(t *testing.T) {
	tg := fig3Graph(t)
	if _, err := FindFeasible(tg, 1); err == nil {
		t.Error("FindFeasible(1) succeeded")
	}
	s, err := FindFeasible(tg, 2)
	if err != nil {
		t.Fatalf("FindFeasible(2): %v", err)
	}
	if s.M != 2 {
		t.Errorf("schedule on %d processors", s.M)
	}
	s, err = MinProcessors(tg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.M != 2 {
		t.Errorf("MinProcessors = %d, want 2", s.M)
	}
	if _, err := MinProcessors(tg, 1); err == nil {
		t.Error("MinProcessors(1) succeeded for load-1.5 graph")
	}
}

func TestScheduleRespectsArrivals(t *testing.T) {
	tg := fig3Graph(t)
	s, err := ListSchedule(tg, 3, BLevel)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range tg.Jobs {
		if s.StartTime(i).Less(j.Arrival) {
			t.Errorf("%s starts at %v before arrival %v", j.Name(), s.StartTime(i), j.Arrival)
		}
	}
}

func TestProcessorOrderSorted(t *testing.T) {
	tg := fig3Graph(t)
	s, err := ListSchedule(tg, 2, ALAPEDF)
	if err != nil {
		t.Fatal(err)
	}
	order := s.ProcessorOrder()
	if len(order) != 2 {
		t.Fatalf("%d processor rows", len(order))
	}
	total := 0
	for p, jobs := range order {
		total += len(jobs)
		for i := 1; i < len(jobs); i++ {
			if s.StartTime(jobs[i]).Less(s.StartTime(jobs[i-1])) {
				t.Errorf("processor %d order not sorted by start time", p)
			}
		}
	}
	if total != len(tg.Jobs) {
		t.Errorf("processor order covers %d jobs, want %d", total, len(tg.Jobs))
	}
}

func TestHeuristicNames(t *testing.T) {
	names := map[Heuristic]string{
		ALAPEDF: "alap-edf", BLevel: "b-level",
		DeadlineMonotonic: "deadline-monotonic", EDF: "edf",
	}
	for h, want := range names {
		if h.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(h), h.String(), want)
		}
	}
	if !strings.Contains(Heuristic(99).String(), "99") {
		t.Error("unknown heuristic String")
	}
}

func TestListScheduleErrors(t *testing.T) {
	tg := fig3Graph(t)
	if _, err := ListSchedule(tg, 0, ALAPEDF); err == nil {
		t.Error("zero processors accepted")
	}
}

func TestValidateDetectsViolations(t *testing.T) {
	tg := fig3Graph(t)
	s, err := ListSchedule(tg, 2, ALAPEDF)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	corrupt := func(f func(c *Schedule)) error {
		c := &Schedule{TG: s.TG, M: s.M, Assign: append([]Assignment(nil), s.Assign...)}
		f(c)
		return c.Validate()
	}

	// Start before arrival.
	late := tg.Job("FilterA", 2).Index
	if err := corrupt(func(c *Schedule) {
		c.Assign[late] = Assignment{Proc: c.Assign[late].Proc, Start: 0}
	}); err == nil || !strings.Contains(err.Error(), "arrival") &&
		!strings.Contains(err.Error(), "precedence") && !strings.Contains(err.Error(), "overlap") {
		t.Errorf("arrival violation not caught: %v", err)
	}

	// Bad processor index.
	if err := corrupt(func(c *Schedule) {
		c.Assign[0] = Assignment{Proc: 7, Start: c.Assign[0].Start}
	}); err == nil || !strings.Contains(err.Error(), "processor") {
		t.Errorf("processor violation not caught: %v", err)
	}

	// Deadline violation, at a start between the graph's 25 ms ticks.
	ob1 := tg.Job("OutputB", 1).Index
	procs, starts := make([]int, len(tg.Jobs)), make([]Time, len(tg.Jobs))
	for i, a := range s.Assign {
		procs[i], starts[i] = a.Proc, s.StartTime(i)
	}
	starts[ob1] = ms(180)
	c, err := FromStarts(tg, s.M, s.Heuristic, procs, starts)
	if err == nil {
		err = c.Validate()
	}
	if err == nil || !strings.Contains(err.Error(), "deadline") &&
		!strings.Contains(err.Error(), "overlap") && !strings.Contains(err.Error(), "precedence") {
		t.Errorf("deadline violation not caught: %v", err)
	}

	// Overlap: put two jobs at the same time on the same processor.
	if err := corrupt(func(c *Schedule) {
		c.Assign[1] = c.Assign[0]
	}); err == nil {
		t.Error("overlap not caught")
	}

	// Wrong assignment count.
	bad := &Schedule{TG: tg, M: 2, Assign: s.Assign[:3]}
	if err := bad.Validate(); err == nil {
		t.Error("truncated assignment slice not caught")
	}
}

// randomNetwork builds a random layered schedulable network for property
// tests: periodic processes with harmonic periods and random FP chains.
func randomNetwork(rng *rand.Rand) *core.Network {
	n := core.NewNetwork("random")
	periods := []int64{100, 200, 400}
	count := 3 + rng.Intn(6)
	names := make([]string, count)
	for i := range names {
		names[i] = string(rune('a' + i))
		p := periods[rng.Intn(len(periods))]
		wcet := int64(1 + rng.Intn(20))
		n.AddPeriodic(names[i], ms(p), ms(p), ms(wcet), nil)
	}
	// Random forward edges: channel + matching priority.
	for i := 0; i < count; i++ {
		for j := i + 1; j < count; j++ {
			if rng.Intn(3) == 0 {
				n.Connect(names[i], names[j], names[i]+"_"+names[j], core.FIFO)
				n.Priority(names[i], names[j])
			}
		}
	}
	return n
}

// TestListSchedulePropertyStructural: on random networks, every schedule
// produced by every heuristic satisfies the structural constraints
// (arrival, precedence, mutual exclusion) even when deadlines are missed.
func TestListSchedulePropertyStructural(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		net := randomNetwork(rng)
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range Heuristics {
			m := 1 + rng.Intn(3)
			s, err := ListSchedule(tg, m, h)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, h, err)
			}
			// Check everything except deadlines.
			for _, e := range tg.Edges() {
				if s.StartTime(e[1]).Less(s.End(e[0])) {
					t.Fatalf("trial %d %v: precedence violated", trial, h)
				}
			}
			for i, j := range tg.Jobs {
				if s.StartTime(i).Less(j.Arrival) {
					t.Fatalf("trial %d %v: arrival violated", trial, h)
				}
			}
			chains := s.ProcessorOrder()
			for p := 0; p < m; p++ {
				var prevEnd Time
				first := true
				for _, i := range chains[p] {
					if !first && s.StartTime(i).Less(prevEnd) {
						t.Fatalf("trial %d %v: overlap on processor %d", trial, h, p)
					}
					prevEnd = s.End(i)
					first = false
				}
			}
		}
	}
}

// TestEnoughProcessorsAlwaysFeasible: with as many processors as jobs and
// generous deadlines, list scheduling must find a feasible schedule.
func TestEnoughProcessorsAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := core.NewNetwork("loose")
		count := 2 + rng.Intn(5)
		var prev string
		for i := 0; i < count; i++ {
			name := string(rune('a' + i))
			n.AddPeriodic(name, ms(1000), ms(1000), ms(int64(1+rng.Intn(10))), nil)
			if prev != "" && rng.Intn(2) == 0 {
				n.Connect(prev, name, prev+name, core.FIFO)
				n.Priority(prev, name)
			}
			prev = name
		}
		tg, err := taskgraph.Derive(n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FindFeasible(tg, count); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestGanttRendering(t *testing.T) {
	tg := fig3Graph(t)
	s, err := ListSchedule(tg, 2, ALAPEDF)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Gantt(80)
	if !strings.Contains(g, "M1") || !strings.Contains(g, "M2") {
		t.Errorf("Gantt missing processor rows:\n%s", g)
	}
	if !strings.Contains(g, "|") {
		t.Errorf("Gantt has no job boundaries:\n%s", g)
	}
	table := s.Table()
	if !strings.Contains(table, "InputA[1]") || !strings.Contains(table, "deadline") {
		t.Errorf("Table output unexpected:\n%s", table)
	}
	if GanttChart(nil, 1, rational.Zero, 10) == "" {
		t.Error("empty Gantt chart rendering")
	}
	if GanttChart(nil, 1, ms(100), 0) == "" {
		t.Error("default width rendering failed")
	}
}

func TestBLevelValues(t *testing.T) {
	// Chain a -> b -> c with C = 10, 20, 30: b-levels 60, 50, 30.
	n := core.NewNetwork("chain")
	n.AddPeriodic("a", ms(1000), ms(1000), ms(10), nil)
	n.AddPeriodic("b", ms(1000), ms(1000), ms(20), nil)
	n.AddPeriodic("c", ms(1000), ms(1000), ms(30), nil)
	n.Connect("a", "b", "ab", core.FIFO)
	n.Connect("b", "c", "bc", core.FIFO)
	n.Priority("a", "b")
	n.Priority("b", "c")
	tg, err := taskgraph.Derive(n)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := newPrecomp(tg)
	if err != nil {
		t.Fatal(err)
	}
	bl := pc.blevelTicks()
	want := map[string]Time{"a[1]": ms(60), "b[1]": ms(50), "c[1]": ms(30)}
	for i, j := range tg.Jobs {
		if got := pc.jt.Scale.FromTicks(bl[i]); !got.Equal(want[j.Name()]) {
			t.Errorf("b-level(%s) = %v, want %v", j.Name(), got, want[j.Name()])
		}
	}
}

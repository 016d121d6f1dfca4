package export

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/apps/signal"
	"repro/internal/plan"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

func fixtures(t *testing.T) (*taskgraph.TaskGraph, *sched.Schedule, *plan.Report) {
	t.Helper()
	tg, err := taskgraph.Derive(signal.New())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.FindFeasible(tg, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(plan.Config{Frames: 2, Inputs: signal.Inputs(2)})
	if err != nil {
		t.Fatal(err)
	}
	return tg, s, rep
}

func TestNetworkJSONRoundTrip(t *testing.T) {
	nj := Network(signal.New())
	if nj.Name != "fig1-signal" || len(nj.Processes) != 7 || len(nj.Channels) != 7 {
		t.Errorf("NetworkJSON structure wrong: %+v", nj)
	}
	text, err := MarshalIndent(nj)
	if err != nil {
		t.Fatal(err)
	}
	var back NetworkJSON
	if err := json.Unmarshal([]byte(text), &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != nj.Name || len(back.Processes) != len(nj.Processes) ||
		len(back.Priorities) != len(nj.Priorities) {
		t.Error("round trip changed the network")
	}
	// Exact rational times survive.
	for _, p := range back.Processes {
		if p.Name == "CoefB" {
			if p.Period != "7/10" || p.Kind != "sporadic" || p.Burst != 2 {
				t.Errorf("CoefB serialized wrong: %+v", p)
			}
		}
	}
	if back.Outputs["OutputChannel1"] != "OutputA" {
		t.Errorf("external outputs lost: %v", back.Outputs)
	}
}

func TestNetworkDOT(t *testing.T) {
	dot := NetworkDOT(signal.New())
	for _, want := range []string{
		"digraph", "doubleoctagon", // sporadic CoefB
		"style=dashed",    // blackboard channels
		"style=dotted",    // pure priority edge (InputA -> NormA)
		"InputChannel",    // external input
		"OutputChannel2",  // external output
		"sporadic 2 per ", // generator annotation
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestTaskGraphJSON(t *testing.T) {
	tg, _, _ := fixtures(t)
	tj := TaskGraph(tg)
	if len(tj.Jobs) != 10 || tj.Hyperperiod != "1/5" {
		t.Errorf("TaskGraphJSON wrong: %d jobs, H=%s", len(tj.Jobs), tj.Hyperperiod)
	}
	servers := 0
	for _, j := range tj.Jobs {
		if j.Server {
			servers++
		}
	}
	if servers != 2 {
		t.Errorf("%d server jobs serialized, want 2", servers)
	}
	if len(tj.Edges) != tg.EdgeCount() {
		t.Error("edge count mismatch")
	}
	if _, err := MarshalIndent(tj); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleJSON(t *testing.T) {
	_, s, _ := fixtures(t)
	sj := Schedule(s)
	if sj.Processors != 2 || len(sj.Assignments) != 10 {
		t.Errorf("ScheduleJSON wrong: %+v", sj)
	}
	text, err := MarshalIndent(sj)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "\"job\": \"InputA[1]\"") {
		t.Error("job names missing from schedule JSON")
	}
}

func TestReportJSON(t *testing.T) {
	_, _, rep := fixtures(t)
	rj := Report(rep)
	if rj.Frames != 2 || len(rj.Entries) == 0 {
		t.Errorf("ReportJSON wrong: %+v", rj)
	}
	if rj.Outputs["OutputChannel1"] != 2 {
		t.Errorf("output counts = %v", rj.Outputs)
	}
	if rj.Skipped != 4 { // 2 CoefB server jobs per frame, no events
		t.Errorf("skipped = %d, want 4", rj.Skipped)
	}
	if _, err := MarshalIndent(rj); err != nil {
		t.Fatal(err)
	}
}

func TestImportScheduleRoundTrip(t *testing.T) {
	tg, s, _ := fixtures(t)
	text, err := MarshalIndent(Schedule(s))
	if err != nil {
		t.Fatal(err)
	}
	back, err := ImportSchedule(tg, text)
	if err != nil {
		t.Fatal(err)
	}
	if back.M != s.M {
		t.Errorf("processors = %d, want %d", back.M, s.M)
	}
	for i := range tg.Jobs {
		if back.Assign[i].Proc != s.Assign[i].Proc ||
			!back.StartTime(i).Equal(s.StartTime(i)) {
			t.Fatalf("assignment %d differs after round trip", i)
		}
	}
	if err := back.Validate(); err != nil {
		t.Errorf("round-tripped schedule invalid: %v", err)
	}
	// And it actually runs.
	backPlan, err := plan.Compile(back)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := backPlan.Run(plan.Config{Frames: 1, Inputs: signal.Inputs(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Misses) != 0 {
		t.Errorf("imported schedule missed deadlines: %v", rep.Misses)
	}
}

// TestImportScheduleOffGrid imports a schedule whose one start lies
// between the task graph's 25 ms ticks: a job that nothing follows, on its
// processor or in the graph, starts 1 ms later. The schedule gets a
// refined tick table, validates, and exports to the same bytes.
func TestImportScheduleOffGrid(t *testing.T) {
	tg, s, _ := fixtures(t)
	last := -1
	for _, chain := range s.ProcessorOrder() {
		if i := chain[len(chain)-1]; len(tg.Succ[i]) == 0 && tg.Jobs[i].Deadline.Sub(s.End(i)).Sign() > 0 {
			last = i
		}
	}
	if last < 0 {
		t.Fatal("no job with slack ends a processor chain")
	}
	sj := Schedule(s)
	a := &sj.Assignments[last]
	a.Start = s.StartTime(last).Add(rational.Milli(1)).String()
	a.End = s.End(last).Add(rational.Milli(1)).String()
	text, err := MarshalIndent(sj)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ImportSchedule(tg, text)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("off-grid schedule invalid: %v", err)
	}
	if jt, _ := back.Ticks(); jt.Scale.Den() != 1000 {
		t.Errorf("tick table 1/%d s, want the 1/1000 s refinement", jt.Scale.Den())
	}
	again, err := MarshalIndent(Schedule(back))
	if err != nil {
		t.Fatal(err)
	}
	if again != text {
		t.Errorf("off-grid schedule does not round-trip:\n%s\nwant\n%s", again, text)
	}
}

func TestImportScheduleErrors(t *testing.T) {
	tg, s, _ := fixtures(t)
	good, err := MarshalIndent(Schedule(s))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(sj *ScheduleJSON)
	}{
		{"zero processors", func(sj *ScheduleJSON) { sj.Processors = 0 }},
		{"unknown job", func(sj *ScheduleJSON) { sj.Assignments[0].Job = "Ghost[1]" }},
		{"duplicate job", func(sj *ScheduleJSON) { sj.Assignments[1].Job = sj.Assignments[0].Job }},
		{"bad start", func(sj *ScheduleJSON) { sj.Assignments[0].Start = "x/y" }},
		{"bad processor", func(sj *ScheduleJSON) { sj.Assignments[0].Processor = 9 }},
		{"missing job", func(sj *ScheduleJSON) { sj.Assignments = sj.Assignments[1:] }},
		{"start beyond the tick guard", func(sj *ScheduleJSON) { sj.Assignments[0].Start = "1099511627777/100" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sj ScheduleJSON
			if err := json.Unmarshal([]byte(good), &sj); err != nil {
				t.Fatal(err)
			}
			tc.mut(&sj)
			text, err := MarshalIndent(sj)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ImportSchedule(tg, text); err == nil {
				t.Error("corrupted schedule accepted")
			}
		})
	}
	if _, err := ImportSchedule(tg, "not json"); err == nil {
		t.Error("garbage accepted")
	}
}

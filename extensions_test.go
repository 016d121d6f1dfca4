package fppn_test

import (
	"strings"
	"testing"

	fppn "repro"
)

func TestPublicAPIExtensions(t *testing.T) {
	net := buildPipeline()

	// Buffer bounds.
	rep, err := fppn.BufferBounds(net, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bound, ok := rep.Bound("raw"); !ok || bound < 1 {
		t.Errorf("raw channel bound %d (tracked %v)", bound, ok)
	}
	if unb := rep.Unbalanced(); len(unb) != 0 {
		t.Errorf("Unbalanced = %v, want none", unb)
	}

	// Schedule stats and ablations.
	tg, err := fppn.DeriveTaskGraph(buildPipeline())
	if err != nil {
		t.Fatal(err)
	}
	s, err := fppn.FindFeasible(tg, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := fppn.ScheduleStats(s)
	if !st.Feasible {
		t.Error("feasible schedule reported infeasible")
	}
	stats, err := fppn.CompareHeuristics(tg, 2)
	if err != nil || len(stats) != 4 {
		t.Errorf("CompareHeuristics: %v, %d rows", err, len(stats))
	}

	// RTA on the baseline.
	pr := fppn.UniPriority{"sensor": 0, "filter": 1, "actuator": 2, "gainer": 3}
	rta, err := fppn.ResponseTimes(net, pr)
	if err != nil {
		t.Fatal(err)
	}
	if !rta["sensor"].Equal(fppn.Ms(10)) {
		t.Errorf("R(sensor) = %v, want 10ms", rta["sensor"])
	}
	if u, err := fppn.UtilizationBound(net); err != nil || u.Sign() <= 0 {
		t.Errorf("UtilizationBound = %v, %v", u, err)
	}

	// Exports.
	if j, err := fppn.ExportNetworkJSON(net); err != nil || !strings.Contains(j, "\"sensor\"") {
		t.Errorf("network JSON: %v", err)
	}
	if d := fppn.ExportNetworkDOT(net); !strings.Contains(d, "digraph") {
		t.Error("network DOT malformed")
	}
	if j, err := fppn.ExportTaskGraphJSON(tg); err != nil || !strings.Contains(j, "hyperperiod") {
		t.Errorf("task graph JSON: %v", err)
	}
	if j, err := fppn.ExportScheduleJSON(s); err != nil || !strings.Contains(j, "assignments") {
		t.Errorf("schedule JSON: %v", err)
	}
	run, err := fppn.Run(s, fppn.RunConfig{Frames: 2, Inputs: pipelineInputs(2)})
	if err != nil {
		t.Fatal(err)
	}
	if j, err := fppn.ExportReportJSON(run); err != nil || !strings.Contains(j, "entries") {
		t.Errorf("report JSON: %v", err)
	}
}

func TestPublicAPIMixedCriticality(t *testing.T) {
	n := fppn.NewNetwork("mc-api")
	n.AddPeriodic("ctrl", fppn.Ms(100), fppn.Ms(100), fppn.Ms(10),
		fppn.BehaviorFunc(func(ctx *fppn.JobContext) error {
			ctx.WriteOutput("c", int(ctx.K()))
			return nil
		}))
	n.AddPeriodic("logger", fppn.Ms(100), fppn.Ms(100), fppn.Ms(10),
		fppn.BehaviorFunc(func(ctx *fppn.JobContext) error {
			ctx.WriteOutput("l", int(ctx.K()))
			return nil
		}))
	n.Output("ctrl", "c")
	n.Output("logger", "l")
	spec := fppn.MCSpec{
		Levels: map[string]fppn.MCLevel{"ctrl": fppn.MCHI},
		WCETHi: map[string]fppn.Time{"ctrl": fppn.Ms(60)},
	}
	mcs, err := fppn.BuildMC(n, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fppn.RunMC(mcs, fppn.MCConfig{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Switches) != 0 || len(rep.HiMisses) != 0 {
		t.Errorf("nominal MC run misbehaved: %+v", rep)
	}
	if len(rep.Outputs["c"]) != 2 || len(rep.Outputs["l"]) != 2 {
		t.Errorf("outputs = %v", rep.Outputs)
	}
}

func TestPublicAPIPipelining(t *testing.T) {
	n := fppn.NewNetwork("pipe-api")
	var prev string
	for _, name := range []string{"s1", "s2", "s3"} {
		n.AddPeriodic(name, fppn.Ms(100), fppn.Ms(300), fppn.Ms(50), nil)
		if prev != "" {
			n.Connect(prev, name, prev+name, fppn.FIFO)
			n.Priority(prev, name)
		}
		prev = name
	}
	tg, err := fppn.DeriveTaskGraphOpts(n, fppn.DeriveOptions{DeadlineSlack: fppn.Ms(200)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := fppn.PipelineSchedule(tg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ValidatePipelined(); err != nil {
		t.Fatal(err)
	}
	rep, err := fppn.Run(s, fppn.RunConfig{Frames: 5, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Misses) != 0 {
		t.Errorf("pipelined misses: %v", rep.Misses)
	}
}

func TestPublicAPILatencyAndMargin(t *testing.T) {
	n := fppn.NewNetwork("lat")
	var prev string
	for _, name := range []string{"in", "mid", "out"} {
		n.AddPeriodic(name, fppn.Ms(100), fppn.Ms(100), fppn.Ms(20), nil)
		if prev != "" {
			n.Connect(prev, name, prev+name, fppn.FIFO)
			n.Priority(prev, name)
		}
		prev = name
	}
	tg, err := fppn.DeriveTaskGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := fppn.FindFeasible(tg, 1)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := fppn.StaticChainLatency(s, []string{"in", "mid", "out"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fppn.Run(s, fppn.RunConfig{Frames: 3})
	if err != nil {
		t.Fatal(err)
	}
	lat, err := fppn.MeasureChainLatency(rep, []string{"in", "mid", "out"})
	if err != nil {
		t.Fatal(err)
	}
	if bound.Less(lat.Worst) {
		t.Errorf("measured %v exceeds static bound %v", lat.Worst, bound)
	}
	margin, err := fppn.WCETMargin(tg, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	if margin.Float64() < 1 {
		t.Errorf("margin %v below 1 for a feasible graph", margin)
	}

	// Schedule round trip through JSON.
	text, err := fppn.ExportScheduleJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fppn.ImportSchedule(tg, text)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Errorf("imported schedule invalid: %v", err)
	}
}

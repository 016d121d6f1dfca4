package mc

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/taskgraph"
)

func ms(n int64) Time { return rational.Milli(n) }

// buildMCNet constructs a dual-criticality network:
//
//	hi1 (HI, 100 ms, C_LO 10/C_HI 40) -> hi2 (HI, 200 ms, C_LO 10/C_HI 30)
//	hi1 -> lo1 (LO, 100 ms, C 10), lo2 (LO, 200 ms, C 20) independent
func buildMCNet() (*core.Network, Spec) {
	n := core.NewNetwork("mc-demo")
	n.AddPeriodic("hi1", ms(100), ms(100), ms(10), core.BehaviorFunc(func(ctx *core.JobContext) error {
		ctx.Write("h12", int(ctx.K()))
		ctx.Write("h1l", int(ctx.K()))
		ctx.WriteOutput("hout", int(ctx.K()))
		return nil
	}))
	n.AddPeriodic("hi2", ms(200), ms(200), ms(10), core.BehaviorFunc(func(ctx *core.JobContext) error {
		if v, ok := ctx.Read("h12"); ok {
			ctx.WriteOutput("h2out", v)
		}
		return nil
	}))
	n.AddPeriodic("lo1", ms(100), ms(100), ms(10), core.BehaviorFunc(func(ctx *core.JobContext) error {
		if v, ok := ctx.Read("h1l"); ok {
			ctx.WriteOutput("lout", v)
		}
		return nil
	}))
	n.AddPeriodic("lo2", ms(200), ms(200), ms(20), core.BehaviorFunc(func(ctx *core.JobContext) error {
		ctx.WriteOutput("l2out", int(ctx.K()))
		return nil
	}))
	n.Connect("hi1", "hi2", "h12", core.FIFO)
	n.Connect("hi1", "lo1", "h1l", core.Blackboard)
	n.Priority("hi1", "hi2")
	n.Priority("hi1", "lo1")
	n.Output("hi1", "hout")
	n.Output("hi2", "h2out")
	n.Output("lo1", "lout")
	n.Output("lo2", "l2out")

	spec := Spec{
		Levels: map[string]Level{"hi1": HI, "hi2": HI},
		WCETHi: map[string]Time{"hi1": ms(40), "hi2": ms(30)},
	}
	return n, spec
}

func TestBuildValidation(t *testing.T) {
	net, spec := buildMCNet()
	if _, err := Build(net, spec, 2); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(s *Spec)
		want string
	}{
		{"no HI", func(s *Spec) { s.Levels = map[string]Level{}; s.WCETHi = map[string]Time{} }, "no HI process"},
		{"missing budget", func(s *Spec) { delete(s.WCETHi, "hi1") }, "no C_HI budget"},
		{"budget below C_LO", func(s *Spec) { s.WCETHi["hi1"] = ms(5) }, "C_HI"},
		{"unknown process", func(s *Spec) { s.Levels["ghost"] = HI; s.WCETHi["ghost"] = ms(1) }, "unknown process"},
		{"budget for LO", func(s *Spec) { s.WCETHi["lo1"] = ms(5) }, "non-HI process"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, spec := buildMCNet()
			tc.mut(&spec)
			_, err := Build(net, spec, 2)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Build = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestHiSubnetworkHyperperiodMismatch(t *testing.T) {
	// Only the 100 ms process is HI: HI hyperperiod 100 != network 200.
	net, _ := buildMCNet()
	spec := Spec{
		Levels: map[string]Level{"hi1": HI},
		WCETHi: map[string]Time{"hi1": ms(40)},
	}
	_, err := Build(net, spec, 2)
	if err == nil || !strings.Contains(err.Error(), "hyperperiod") {
		t.Errorf("Build = %v, want hyperperiod mismatch", err)
	}
}

func TestNominalRunMatchesPlainRuntime(t *testing.T) {
	net, spec := buildMCNet()
	mcs, err := Build(net, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(mcs, Config{Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Switches) != 0 || rep.DroppedLO != 0 {
		t.Errorf("nominal run switched modes: %+v", rep.Switches)
	}
	if len(rep.HiMisses)+len(rep.LoMisses) != 0 {
		t.Errorf("nominal misses: %v %v", rep.HiMisses, rep.LoMisses)
	}
	p, err := plan.Compile(mcs.Lo)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := p.Run(plan.Config{Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !core.SamplesEqual(plain.Outputs, rep.Outputs) {
		t.Errorf("nominal MC run diverges from plain runtime: %s",
			core.DiffSamples(plain.Outputs, rep.Outputs))
	}
	// SamplesEqual ignores time stamps: every sample carries its job's
	// invocation time, however long the job waited to start.
	for ch, want := range plain.Outputs {
		for k, got := range rep.Outputs[ch] {
			if !got.Time.Equal(want[k].Time) {
				t.Errorf("%s sample %d stamped %v, plain runtime %v", ch, k, got.Time, want[k].Time)
			}
		}
	}
	if len(rep.Entries) != len(plain.Entries) {
		t.Fatalf("%d Gantt entries, plain runtime %d", len(rep.Entries), len(plain.Entries))
	}
	plainEntries := plain.GanttEntries()
	for k, got := range rep.Entries {
		want := plainEntries[k]
		if got.Proc != want.Proc || got.Label != want.Label || !got.Start.Equal(want.Start) || !got.End.Equal(want.End) {
			t.Errorf("Gantt entry %d = %+v, plain runtime %+v", k, got, want)
		}
	}
}

// overrunExec makes hi1's first job of the given frame consume its full
// C_HI budget; every other job runs at C_LO.
func overrunExec(frame int) platform.ExecModel {
	return func(j *taskgraph.Job, f int) Time {
		if f == frame && j.Proc == "hi1" && j.K == 1 {
			return ms(40)
		}
		return j.WCET
	}
}

func TestModeSwitchOnOverrun(t *testing.T) {
	net, spec := buildMCNet()
	mcs, err := Build(net, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(mcs, Config{Frames: 3, Exec: overrunExec(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Switches) != 1 {
		t.Fatalf("%d mode switches, want 1: %+v", len(rep.Switches), rep.Switches)
	}
	sw := rep.Switches[0]
	if sw.Frame != 1 || sw.Culprit.Proc != "hi1" {
		t.Errorf("switch = %+v, want frame 1 culprit hi1", sw)
	}
	// The switch fires when the budget expires, i.e. C_LO after the
	// culprit's start, inside frame 1.
	frameBase := ms(200)
	if sw.At.Less(frameBase.Add(ms(10))) {
		t.Errorf("switch at %v, before any budget could expire", sw.At)
	}
	if len(rep.HiMisses) != 0 {
		t.Errorf("HI jobs missed deadlines despite the HI schedule: %v", rep.HiMisses)
	}
	if rep.DroppedLO == 0 {
		t.Error("no LO jobs dropped in the degraded frame")
	}
	// All HI outputs are present in every frame: hi1 runs twice per
	// frame, hi2 once.
	if got := len(rep.Outputs["hout"]); got != 6 {
		t.Errorf("hout samples = %d, want 6", got)
	}
	if got := len(rep.Outputs["h2out"]); got != 3 {
		t.Errorf("h2out samples = %d, want 3", got)
	}
	// Some LO output was lost in frame 1.
	if got := len(rep.Outputs["lout"]) + len(rep.Outputs["l2out"]); got >= 6+3 {
		t.Errorf("LO outputs complete (%d) despite dropped jobs", got)
	}
}

func TestModeResetsNextFrame(t *testing.T) {
	net, spec := buildMCNet()
	mcs, err := Build(net, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(mcs, Config{Frames: 4, Exec: overrunExec(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Switches) != 1 || rep.Switches[0].Frame != 0 {
		t.Fatalf("switches = %+v, want exactly one in frame 0", rep.Switches)
	}
	// Frames 1-3 run nominally: full LO output counts for those frames.
	// lo2 produces 1 sample per frame; at most the frame-0 one is lost.
	if got := len(rep.Outputs["l2out"]); got < 3 {
		t.Errorf("l2out = %d samples, want >= 3 (frames 1-3 nominal)", got)
	}
}

func TestBudgetExhaustionBeyondCHiFails(t *testing.T) {
	net, spec := buildMCNet()
	mcs, err := Build(net, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(mcs, Config{Frames: 1, Exec: func(j *taskgraph.Job, f int) Time {
		if j.Proc == "hi1" {
			return ms(50) // beyond C_HI = 40
		}
		return j.WCET
	}})
	if err == nil || !strings.Contains(err.Error(), "C_HI") {
		t.Errorf("Run = %v, want C_HI violation", err)
	}
}

func TestLoOverrunFails(t *testing.T) {
	net, spec := buildMCNet()
	mcs, err := Build(net, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(mcs, Config{Frames: 1, Exec: func(j *taskgraph.Job, f int) Time {
		if j.Proc == "lo2" {
			return ms(25)
		}
		return j.WCET
	}})
	if err == nil || !strings.Contains(err.Error(), "LO job") {
		t.Errorf("Run = %v, want LO budget violation", err)
	}
}

func TestRunErrors(t *testing.T) {
	net, spec := buildMCNet()
	mcs, err := Build(net, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(mcs, Config{Frames: 0}); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := Run(mcs, Config{Frames: 1, Exec: func(j *taskgraph.Job, f int) Time {
		return ms(-1)
	}}); err == nil {
		t.Error("negative execution time accepted")
	}
}

func TestLevelString(t *testing.T) {
	if LO.String() != "LO" || HI.String() != "HI" {
		t.Error("Level.String mismatch")
	}
}

package signal

import (
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

func TestValidates(t *testing.T) {
	t.Parallel()
	n := New()
	if err := n.ValidateSchedulable(); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Processes()); got != 7 {
		t.Errorf("%d processes, want 7 (Fig. 1)", got)
	}
	if got := len(n.Channels()); got != 7 {
		t.Errorf("%d channels, want 7", got)
	}
}

func TestDataPath(t *testing.T) {
	t.Parallel()
	res, err := core.RunZeroDelay(New(), ms(400), core.ZeroDelayOptions{
		Inputs: Inputs(2),
		Seed:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Frame 1: InputA writes 1 to inA and 10 to inB. FilterA[1] outputs
	// 1·2+0 = 2; FilterA[2] repeats the held sample with the feedback
	// NormA wrote. NormA[1] sums {2} -> normed 2, feedback 2.
	outA := res.Outputs[ExtOutputA]
	if len(outA) != 2 || outA[0].Value.(int) != 2 {
		t.Errorf("OutputChannel1 = %v, want first sample 2", outA)
	}
	// FilterB[1] reads the initial coefficient 1: 10·1 = 10.
	outB := res.Outputs[ExtOutputB]
	if len(outB) == 0 || outB[0].Value.(int) != 10 {
		t.Errorf("OutputChannel2 = %v, want first sample 10", outB)
	}
}

func TestCoefficientReconfiguration(t *testing.T) {
	t.Parallel()
	base, err := core.RunZeroDelay(New(), ms(1400), core.ZeroDelayOptions{Inputs: Inputs(7)})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.RunZeroDelay(New(), ms(1400), core.ZeroDelayOptions{
		Inputs:         Inputs(7),
		SporadicEvents: map[string][]core.Time{CoefB: {ms(100)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if core.SamplesEqual(base.Outputs, cfg.Outputs) {
		t.Error("CoefB reconfiguration had no effect on OutputChannel2")
	}
	// OutputChannel1 is independent of CoefB.
	if core.DiffSamples(
		map[string][]core.Sample{ExtOutputA: base.Outputs[ExtOutputA]},
		map[string][]core.Sample{ExtOutputA: cfg.Outputs[ExtOutputA]}) != "" {
		t.Error("CoefB reconfiguration leaked into the A path")
	}
}

func TestEndToEndCompileAndRun(t *testing.T) {
	t.Parallel()
	tg, err := taskgraph.Derive(New())
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
	rep, err := p.Run(plan.Config{
		Frames:         7,
		Inputs:         Inputs(7),
		SporadicEvents: map[string][]core.Time{CoefB: {ms(150), ms(600)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Misses) != 0 {
		t.Errorf("misses: %v", rep.Misses)
	}
	ref, err := core.RunZeroDelay(New(), ms(1400), core.ZeroDelayOptions{
		Inputs:         Inputs(7),
		SporadicEvents: map[string][]core.Time{CoefB: {ms(150), ms(600)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !core.SamplesEqual(ref.Outputs, rep.Outputs) {
		t.Errorf("runtime diverges from zero-delay: %s", core.DiffSamples(ref.Outputs, rep.Outputs))
	}
}

func TestNewWCETParameter(t *testing.T) {
	t.Parallel()
	n := NewWCET(rational.Milli(10))
	for _, p := range n.Processes() {
		if !p.WCET.Equal(rational.Milli(10)) {
			t.Errorf("%s WCET = %v", p.Name, p.WCET)
		}
	}
}

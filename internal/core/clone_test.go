package core

import (
	"testing"

	"repro/internal/rational"
)

func TestCloneStructure(t *testing.T) {
	src := buildFig1(t)
	clone := src.CloneStructure(rational.One)
	if err := clone.ValidateSchedulable(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if len(clone.Processes()) != len(src.Processes()) ||
		len(clone.Channels()) != len(src.Channels()) ||
		len(clone.PriorityEdges()) != len(src.PriorityEdges()) {
		t.Error("clone lost structure")
	}
	if clone.ExternalInputs()[0] != src.ExternalInputs()[0] {
		t.Error("clone lost external inputs")
	}
	// Scaling applies to every WCET.
	half := src.CloneStructure(rational.New(1, 2))
	for _, p := range half.Processes() {
		want := src.Process(p.Name).WCET.DivInt(2)
		if !p.WCET.Equal(want) {
			t.Errorf("%s WCET = %v, want %v", p.Name, p.WCET, want)
		}
	}
	// The clone is independent: mutating it leaves the source intact.
	clone.AddPeriodic("extra", ms(100), ms(100), ms(1), nil)
	if src.Process("extra") != nil {
		t.Error("clone mutation leaked into the source")
	}
	// Blackboard initial values survive.
	withInit := NewNetwork("init")
	withInit.AddPeriodic("a", ms(100), ms(100), ms(1), nil)
	withInit.AddPeriodic("b", ms(100), ms(100), ms(1), nil)
	withInit.ConnectInit("a", "b", "bb", 42)
	withInit.Priority("a", "b")
	cl := withInit.CloneStructure(rational.One)
	bb := cl.Channel("bb")
	if bb == nil || !bb.HasInitial || bb.Initial.(int) != 42 {
		t.Error("clone lost blackboard initial value")
	}
}

func TestCloneRunsIdentically(t *testing.T) {
	src := buildFig1(t)
	fig1Behaviors(src)
	clone := src.CloneStructure(rational.One)
	a, err := RunZeroDelay(src, ms(400), ZeroDelayOptions{Inputs: fig1Inputs(2)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunZeroDelay(clone, ms(400), ZeroDelayOptions{Inputs: fig1Inputs(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !SamplesEqual(a.Outputs, b.Outputs) {
		t.Errorf("clone behaves differently: %s", DiffSamples(a.Outputs, b.Outputs))
	}
}

package analysis

import (
	"strings"
	"testing"

	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// chain3 builds a -> b -> c, period 100 ms, WCET 20 ms each.
func chain3() *core.Network {
	n := core.NewNetwork("chain3")
	var prev string
	for _, name := range []string{"a", "b", "c"} {
		n.AddPeriodic(name, ms(100), ms(100), ms(20), nil)
		if prev != "" {
			n.Connect(prev, name, prev+name, core.FIFO)
			n.Priority(prev, name)
		}
		prev = name
	}
	return n
}

func chainSchedule(t *testing.T, m int) *sched.Schedule {
	t.Helper()
	tg, err := taskgraph.Derive(chain3())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.FindFeasible(tg, m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMeasureChainLatency(t *testing.T) {
	s := chainSchedule(t, 1)
	rep := runOnce(t, s, plan.Config{Frames: 5})
	lat, err := MeasureChainLatency(rep, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	// Uniprocessor chain: a, b, c back to back -> 60 ms every frame.
	if lat.Samples != 5 {
		t.Errorf("samples = %d, want 5", lat.Samples)
	}
	if !lat.Worst.Equal(ms(60)) || !lat.Best.Equal(ms(60)) {
		t.Errorf("latency = [%v, %v], want 60ms constant", lat.Best, lat.Worst)
	}
	if avg, ok := lat.Average(); !ok || !avg.Equal(ms(60)) {
		t.Errorf("average = %v (ok=%v)", avg, ok)
	}
	if !strings.Contains(lat.String(), "worst") {
		t.Error("String rendering broken")
	}
}

// A measurement with zero samples has no average; both the accessor and
// the rendering must say so instead of inventing a zero.
func TestChainLatencyNoSamples(t *testing.T) {
	var lat ChainLatency
	if avg, ok := lat.Average(); ok || avg.Sign() != 0 {
		t.Errorf("Average() on empty measurement = %v (ok=%v), want 0, false", avg, ok)
	}
	if !strings.Contains(lat.String(), "no samples") {
		t.Errorf("String() = %q, want a no-samples rendering", lat.String())
	}
}

func TestMeasureChainLatencyWithJitter(t *testing.T) {
	s := chainSchedule(t, 2)
	jitter := func(j *taskgraph.Job, frame int) Time {
		if frame%2 == 0 {
			return j.WCET
		}
		return j.WCET.DivInt(2)
	}
	rep := runOnce(t, s, plan.Config{Frames: 6, Exec: jitter})
	lat, err := MeasureChainLatency(rep, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if !lat.Worst.Equal(ms(60)) {
		t.Errorf("worst = %v, want 60ms (WCET frames)", lat.Worst)
	}
	if !lat.Best.Equal(ms(30)) {
		t.Errorf("best = %v, want 30ms (half-speed frames)", lat.Best)
	}
}

func TestMeasureChainLatencyErrors(t *testing.T) {
	s := chainSchedule(t, 1)
	rep := runOnce(t, s, plan.Config{Frames: 1})
	if _, err := MeasureChainLatency(rep, []string{"a"}); err == nil {
		t.Error("single-process chain accepted")
	}
	if _, err := MeasureChainLatency(rep, []string{"a", "ghost"}); err == nil {
		t.Error("unknown process accepted")
	}
	// Mixed rates rejected.
	n := core.NewNetwork("mixed")
	n.AddPeriodic("x", ms(100), ms(100), ms(10), nil)
	n.AddPeriodic("y", ms(200), ms(200), ms(10), nil)
	n.Connect("x", "y", "xy", core.FIFO)
	n.Priority("x", "y")
	tg, err := taskgraph.Derive(n)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sched.FindFeasible(tg, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep2 := runOnce(t, s2, plan.Config{Frames: 1})
	if _, err := MeasureChainLatency(rep2, []string{"x", "y"}); err == nil {
		t.Error("multi-rate chain accepted")
	}
	// Sporadic stages rejected.
	repSig := runOnce(t, mustSchedule(t, signal.New(), 2), plan.Config{Frames: 1})
	if _, err := MeasureChainLatency(repSig, []string{signal.CoefB, signal.FilterB}); err == nil {
		t.Error("sporadic stage accepted")
	}
}

// runOnce compiles s and executes it once.
func runOnce(t *testing.T, s *sched.Schedule, cfg plan.Config) *plan.Report {
	t.Helper()
	p, err := plan.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func mustSchedule(t *testing.T, net *core.Network, m int) *sched.Schedule {
	t.Helper()
	tg, err := taskgraph.Derive(net)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.FindFeasible(tg, m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStaticChainLatency(t *testing.T) {
	s := chainSchedule(t, 1)
	worst, err := StaticChainLatency(s, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if !worst.Equal(ms(60)) {
		t.Errorf("static worst = %v, want 60ms", worst)
	}
	// The measured latency never exceeds the static bound.
	rep := runOnce(t, s, plan.Config{Frames: 4})
	lat, err := MeasureChainLatency(rep, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if worst.Less(lat.Worst) {
		t.Errorf("measured %v exceeds static bound %v", lat.Worst, worst)
	}
	if _, err := StaticChainLatency(s, []string{"a"}); err == nil {
		t.Error("short chain accepted")
	}
	if _, err := StaticChainLatency(s, []string{"ghost", "c"}); err == nil {
		t.Error("unknown chain accepted")
	}
}

func TestWCETMargin(t *testing.T) {
	// Chain of 3 × 20 ms in a 100 ms frame on one processor: utilization
	// margin is 100/60 ≈ 1.667 (the precedence chain is the binding
	// constraint).
	tg, err := taskgraph.Derive(chain3())
	if err != nil {
		t.Fatal(err)
	}
	margin, err := WCETMargin(tg, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	got := margin.Float64()
	if got < 1.55 || got > 1.70 {
		t.Errorf("margin = %.4f, want ≈ 5/3", got)
	}
	// Scaling at the found margin must still be feasible.
	scaled, err := scaleGraph(tg, margin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.FindFeasible(scaled, 1); err != nil {
		t.Errorf("graph infeasible at its own margin: %v", err)
	}
	if _, err := WCETMargin(tg, 1, 1); err == nil {
		t.Error("resolution 1 accepted")
	}
}

func TestWCETMarginInfeasibleNominal(t *testing.T) {
	// Load 1.5 graph on one processor: margin < 1.
	tg, err := taskgraph.Derive(signal.New())
	if err != nil {
		t.Fatal(err)
	}
	margin, err := WCETMargin(tg, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !margin.Less(rational.One) {
		t.Errorf("margin = %v, want < 1 for an infeasible nominal graph", margin)
	}
	if margin.Sign() <= 0 {
		t.Errorf("margin = %v, want > 0 (tiny jobs always fit)", margin)
	}
}

package unisched

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/rational"
)

func ms(n int64) Time { return rational.Milli(n) }

func TestRateMonotonic(t *testing.T) {
	n := core.NewNetwork("rm")
	n.AddPeriodic("slow", ms(1000), ms(1000), ms(1), nil)
	n.AddPeriodic("fast", ms(100), ms(100), ms(1), nil)
	n.AddPeriodic("mid", ms(500), ms(500), ms(1), nil)
	pr := RateMonotonic(n)
	if !(pr["fast"] < pr["mid"] && pr["mid"] < pr["slow"]) {
		t.Errorf("rate-monotonic ranks wrong: %v", pr)
	}
}

func TestRateMonotonicTieBreakStable(t *testing.T) {
	n := core.NewNetwork("tie")
	n.AddPeriodic("a", ms(100), ms(100), ms(1), nil)
	n.AddPeriodic("b", ms(100), ms(100), ms(1), nil)
	pr := RateMonotonic(n)
	if pr["a"] != 0 || pr["b"] != 1 {
		t.Errorf("tie break not by insertion order: %v", pr)
	}
}

func TestConsistent(t *testing.T) {
	net := signal.New()
	// A priority order that extends the FP DAG is consistent.
	order, err := net.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pr := make(Priority)
	for i, p := range order {
		pr[p] = i
	}
	if err := Consistent(net, pr); err != nil {
		t.Errorf("topological priority rejected: %v", err)
	}
	// Reversing two FP-related processes breaks consistency.
	pr[signal.InputA], pr[signal.FilterA] = pr[signal.FilterA], pr[signal.InputA]
	if err := Consistent(net, pr); err == nil {
		t.Error("inconsistent priority accepted")
	}
	if err := Consistent(net, Priority{}); err == nil {
		t.Error("empty priority accepted")
	}
}

// TestFunctionalEquivalenceWithFPPN is the §V-B claim in miniature: when
// the uniprocessor scheduling priorities extend the functional-priority
// DAG, the legacy fixed-priority system and the FPPN zero-delay semantics
// produce identical channel values.
func TestFunctionalEquivalenceWithFPPN(t *testing.T) {
	net := signal.New()
	order, err := net.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pr := make(Priority)
	for i, p := range order {
		pr[p] = i
	}
	events := map[string][]Time{signal.CoefB: {ms(50), ms(420), ms(950)}}
	inputs := signal.Inputs(7)

	legacy, err := RunFunctional(net, ms(1400), pr, events, inputs, true)
	if err != nil {
		t.Fatal(err)
	}
	fppn, err := core.RunZeroDelay(signal.New(), ms(1400), core.ZeroDelayOptions{
		SporadicEvents: events, Inputs: inputs, Seed: -1, RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !core.SamplesEqual(legacy.Outputs, fppn.Outputs) {
		t.Errorf("legacy and FPPN outputs differ: %s",
			core.DiffSamples(legacy.Outputs, fppn.Outputs))
	}
	for _, ch := range []string{signal.ChanInA, signal.ChanFiltered, signal.ChanCoefs} {
		a := legacy.Trace.WritesTo(ch)
		b := fppn.Trace.WritesTo(ch)
		if len(a) != len(b) {
			t.Fatalf("channel %s write counts differ", ch)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("channel %s write %d differs: %v vs %v", ch, i, a[i], b[i])
			}
		}
	}
}

// TestInconsistentPriorityDiverges shows the equivalence is not vacuous: a
// scheduling priority that contradicts FP yields different outputs.
func TestInconsistentPriorityDiverges(t *testing.T) {
	net := signal.New()
	order, _ := net.TopoOrder()
	pr := make(Priority)
	for i, p := range order {
		pr[p] = i
	}
	// Give InputA the lowest priority: it now runs after the filters at
	// each common release, so the filters read stale samples.
	pr[signal.InputA] = len(order) + 5
	inputs := signal.Inputs(7)
	legacy, err := RunFunctional(net, ms(1400), pr, nil, inputs, false)
	if err != nil {
		t.Fatal(err)
	}
	fppn, err := core.RunZeroDelay(signal.New(), ms(1400), core.ZeroDelayOptions{
		Inputs: inputs, Seed: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if core.SamplesEqual(legacy.Outputs, fppn.Outputs) {
		t.Error("priority inversion produced identical outputs; the equivalence test is vacuous")
	}
}

func TestRunFunctionalErrors(t *testing.T) {
	net := signal.New()
	if _, err := RunFunctional(net, ms(200), Priority{}, nil, nil, false); err == nil {
		t.Error("missing priorities accepted")
	}
	bad := core.NewNetwork("bad")
	bad.AddPeriodic("p", ms(0), ms(1), ms(1), nil)
	if _, err := RunFunctional(bad, ms(200), Priority{"p": 0}, nil, nil, false); err == nil {
		t.Error("invalid network accepted")
	}
}

func TestSimulateUtilizationAndResponse(t *testing.T) {
	// Two tasks: hi (T=100, C=20), lo (T=200, C=60). RM priorities.
	// Busy period at 0: hi 0-20, lo 20-80; at 100: hi 100-120.
	n := core.NewNetwork("two")
	n.AddPeriodic("hi", ms(100), ms(100), ms(20), nil)
	n.AddPeriodic("lo", ms(200), ms(200), ms(60), nil)
	res, err := Simulate(n, ms(200), RateMonotonic(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Errorf("%d misses, want 0", res.Misses)
	}
	// Utilization = (2·20 + 60) / 200 = 1/2.
	if !res.Utilization.Equal(rational.New(1, 2)) {
		t.Errorf("utilization = %v, want 1/2", res.Utilization)
	}
	byName := map[string]JobTiming{}
	for _, j := range res.Jobs {
		byName[j.Proc+string(rune('0'+j.K))] = j
	}
	if f := byName["lo1"].Finish; !f.Equal(ms(80)) {
		t.Errorf("lo[1] finish = %v, want 80ms", f)
	}
	if f := byName["hi2"].Finish; !f.Equal(ms(120)) {
		t.Errorf("hi[2] finish = %v, want 120ms", f)
	}
}

func TestSimulatePreemption(t *testing.T) {
	// lo (T=200, C=50) is preempted by hi (T=100, C=10) released at 100?
	// No: lo runs 10-60, done before 100. Make lo longer: C=120 with
	// deadline 200: lo runs 10-100, preempted at 100 by hi[2], resumes
	// 110-140.
	n := core.NewNetwork("pre")
	n.AddPeriodic("hi", ms(100), ms(100), ms(10), nil)
	n.AddPeriodic("lo", ms(200), ms(200), ms(120), nil)
	res, err := Simulate(n, ms(200), RateMonotonic(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	var lo JobTiming
	for _, j := range res.Jobs {
		if j.Proc == "lo" {
			lo = j
		}
	}
	if lo.Preemptions != 1 {
		t.Errorf("lo preemptions = %d, want 1", lo.Preemptions)
	}
	if !lo.Finish.Equal(ms(140)) {
		t.Errorf("lo finish = %v, want 140ms", lo.Finish)
	}
	if !lo.Start.Equal(ms(10)) {
		t.Errorf("lo start = %v, want 10ms", lo.Start)
	}
	if res.Misses != 0 {
		t.Errorf("misses = %d", res.Misses)
	}
}

func TestSimulateOverloadMisses(t *testing.T) {
	n := core.NewNetwork("overload")
	n.AddPeriodic("a", ms(100), ms(100), ms(70), nil)
	n.AddPeriodic("b", ms(100), ms(100), ms(70), nil)
	res, err := Simulate(n, ms(200), RateMonotonic(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses == 0 {
		t.Error("overloaded task set reported no misses")
	}
	if res.MaxLateness.Sign() <= 0 {
		t.Errorf("max lateness = %v, want positive", res.MaxLateness)
	}
}

func TestSimulateSporadic(t *testing.T) {
	net := signal.New()
	res, err := Simulate(net, ms(1400), RateMonotonic(net),
		map[string][]Time{signal.CoefB: {ms(30), ms(800)}})
	if err != nil {
		t.Fatal(err)
	}
	coefs := 0
	for _, j := range res.Jobs {
		if j.Proc == signal.CoefB {
			coefs++
			if j.Release.Sign() < 0 {
				t.Error("negative release")
			}
		}
	}
	if coefs != 2 {
		t.Errorf("%d CoefB jobs, want 2", coefs)
	}
}

func TestSimulateErrors(t *testing.T) {
	net := signal.New()
	if _, err := Simulate(net, ms(200), Priority{}, nil); err == nil {
		t.Error("missing priorities accepted")
	}
	bad := core.NewNetwork("bad")
	bad.AddPeriodic("p", ms(0), ms(1), ms(1), nil)
	if _, err := Simulate(bad, ms(100), Priority{"p": 0}, nil); err == nil {
		t.Error("invalid network accepted")
	}
}

func TestConsistencyErrorMessage(t *testing.T) {
	net := signal.New()
	pr := RateMonotonic(net)
	// Rate-monotonic on the signal app: FilterA (100ms) outranks InputA
	// (200ms), contradicting FP InputA -> FilterA.
	err := Consistent(net, pr)
	if err == nil || !strings.Contains(err.Error(), "contradicts functional priority") {
		t.Errorf("Consistent = %v, want contradiction", err)
	}
}

// TestRunFunctionalTiedPriorities pins the tie-break among jobs released
// together: by priority, then by process name, whatever the insertion
// order.
func TestRunFunctionalTiedPriorities(t *testing.T) {
	net := core.NewNetwork("tied")
	for _, name := range []string{"mid", "zeta", "alpha"} {
		net.AddPeriodic(name, ms(100), ms(100), ms(1), nil)
	}
	res, err := RunFunctional(net, ms(200), Priority{"mid": 1, "zeta": 0, "alpha": 0}, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, j := range res.Jobs {
		got = append(got, j.String())
	}
	want := []string{"alpha[1]@0", "zeta[1]@0", "mid[1]@0", "alpha[2]@1/10", "zeta[2]@1/10", "mid[2]@1/10"}
	if !slices.Equal(got, want) {
		t.Errorf("job order %v, want %v", got, want)
	}
}

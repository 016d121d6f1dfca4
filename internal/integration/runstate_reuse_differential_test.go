// Differential harness for pooled RunState reuse: the steady-state replay
// path recycles the planner scratch, the data machine, the report arenas
// and the boxed float cells across runs, and every one of those pools is an
// opportunity to leak state from a previous run into the next. The tests
// here run back-to-back (and shape-changing, and entry-point-interleaved)
// runs on one pooled RunState and demand byte-identical reports to a fresh
// RunState executing the same configuration — on the paper apps, a random-
// network corpus, and a native fuzz target.
//
// Reports from a pooled state are valid only until the next run on that
// state, so every report is serialized to canonical JSON (and its outputs
// deep-copied) before the state is reused.
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
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// copyOutputs deep-copies an outputs map so it survives the next run on the
// pooled state that produced it.
func copyOutputs(outputs map[string][]core.Sample) map[string][]core.Sample {
	if outputs == nil {
		return nil
	}
	out := make(map[string][]core.Sample, len(outputs))
	for ch, samples := range outputs {
		out[ch] = append([]core.Sample(nil), samples...)
	}
	return out
}

// runPooled executes one run on the pooled state and returns the report's
// canonical JSON plus a deep copy of its outputs, taken before the state
// can be reused.
func runPooled(t *testing.T, rs *plan.RunState, cfg plan.Config, concurrent bool) (string, map[string][]core.Sample) {
	t.Helper()
	run := rs.Run
	if concurrent {
		run = rs.RunConcurrent
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("pooled run: %v", err)
	}
	return reportJSON(t, rep), copyOutputs(rep.Outputs)
}

// checkAgainstFresh compares a pooled run's serialized report against the
// same configuration executed on a fresh RunState.
func checkAgainstFresh(t *testing.T, p *plan.Plan, cfg plan.Config, concurrent bool,
	step string, gotJSON string, gotOutputs map[string][]core.Sample) {
	t.Helper()
	run := p.Run
	if concurrent {
		run = p.RunConcurrent
	}
	want, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: fresh run: %v", step, err)
	}
	if wantJSON := reportJSON(t, want); gotJSON != wantJSON {
		t.Fatalf("%s: pooled report JSON diverges from fresh state", step)
	}
	if !reflect.DeepEqual(gotOutputs, want.Outputs) {
		t.Fatalf("%s: pooled outputs diverge from fresh state: %s",
			step, core.DiffSamples(want.Outputs, gotOutputs))
	}
}

// reuseSequence drives one pooled RunState through a sequence of runs —
// repeated, shape-changing (frame counts grow and shrink the arenas), and
// alternating between Run and RunConcurrent — checking every step against
// a fresh state.
func reuseSequence(t *testing.T, p *plan.Plan, cfgs []plan.Config) {
	t.Helper()
	rs := p.NewRunState()
	for round := 0; round < 2; round++ {
		for ci, cfg := range cfgs {
			for _, concurrent := range []bool{false, true} {
				if concurrent && cfg.Pipelined {
					continue
				}
				step := fmt.Sprintf("round %d cfg %d concurrent=%v", round, ci, concurrent)
				gotJSON, gotOutputs := runPooled(t, rs, cfg, concurrent)
				checkAgainstFresh(t, p, cfg, concurrent, step, gotJSON, gotOutputs)
			}
		}
	}
}

// TestRunStateReusePaperApps replays the paper applications on pooled
// RunStates: repeated frames, changed frame counts, toggled traces and both
// entry points must match fresh-state runs byte for byte.
func TestRunStateReusePaperApps(t *testing.T) {
	cases := []struct {
		name   string
		build  func() *core.Network
		m      int
		inputs map[string][]core.Value
		events map[string][]core.Time
		over   platform.OverheadModel
	}{
		{
			name: "signal", build: signal.New, m: 2,
			inputs: signal.Inputs(7),
			events: map[string][]core.Time{signal.CoefB: {rational.Milli(50), rational.Milli(400)}},
		},
		{
			name: "fft", build: fft.New, m: 2,
			inputs: fft.Inputs([]fft.Frame{{1, 2, 3, 4}, {5, 6, 7, 8}, {2, 4, 6, 8}}),
			over:   platform.MPPAFFTOverhead(),
		},
		{
			name: "fms", build: fms.New, m: 1,
			inputs: fms.Inputs(50),
			events: map[string][]core.Time{
				fms.AnemoConfig:      {rational.Milli(40)},
				fms.MagnDeclinConfig: {rational.Milli(500)},
			},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			tg, err := taskgraph.Derive(c.build())
			if err != nil {
				t.Fatal(err)
			}
			s, err := sched.FindFeasible(tg, c.m)
			if err != nil {
				t.Fatal(err)
			}
			p, err := plan.Compile(s)
			if err != nil {
				t.Fatal(err)
			}
			base := plan.Config{
				Frames: 3, SporadicEvents: c.events,
				Inputs: c.inputs, Overhead: c.over,
			}
			traced := base
			traced.RecordTrace = true
			shrunk := base
			shrunk.Frames = 1
			shrunk.SporadicEvents = nil
			noEvents := base
			noEvents.Frames = 4
			noEvents.SporadicEvents = nil
			reuseSequence(t, p, []plan.Config{base, traced, shrunk, noEvents})
		})
	}
}

// TestRunStateReuseRandomNetworks sweeps random networks (raise with
// FPPN_FUZZ_TRIALS): pooled reuse must match fresh-state execution under
// random events, inputs and execution-time jitter.
func TestRunStateReuseRandomNetworks(t *testing.T) {
	trials := trialCount(t, 50)
	rng := rand.New(rand.NewSource(727272))
	type reuseCase struct {
		tg     *taskgraph.TaskGraph
		events map[string][]core.Time
		inputs map[string][]core.Value
		m      int
	}
	cases := make([]reuseCase, trials)
	for trial := range cases {
		net := nettest.Random(rng, nettest.Options{})
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Fatalf("trial %d: derive: %v", trial, err)
		}
		horizon := tg.Hyperperiod.MulInt(2)
		cases[trial] = reuseCase{
			tg:     tg,
			events: nettest.RandomEvents(rng, net, horizon),
			inputs: nettest.Inputs(net, 200),
			m:      1 + rng.Intn(3),
		}
	}
	for trial, c := range cases {
		trial, c := trial, c
		t.Run(fmt.Sprintf("net%03d", trial), func(t *testing.T) {
			t.Parallel()
			s, err := sched.FindFeasible(c.tg, c.m)
			if err != nil {
				s, err = sched.FindFeasible(c.tg, len(c.tg.Jobs))
				if err != nil {
					t.Fatalf("no feasible schedule at all: %v", err)
				}
			}
			p, err := plan.Compile(s)
			if err != nil {
				t.Fatal(err)
			}
			jitter, err := platform.JitterExec(int64(trial), rational.New(1, 2))
			if err != nil {
				t.Fatal(err)
			}
			base := plan.Config{
				Frames: 2, SporadicEvents: c.events,
				Inputs: c.inputs, Exec: jitter,
				RecordTrace: trial%3 == 0,
			}
			shrunk := base
			shrunk.Frames = 1
			shrunk.SporadicEvents = nil
			reuseSequence(t, p, []plan.Config{base, shrunk})
		})
	}
}

// FuzzPlanRunStateReuse explores pooled-reuse divergence with arbitrary
// seeds: two back-to-back runs (second with a different frame count) on one
// pooled RunState must serialize identically to fresh-state runs.
func FuzzPlanRunStateReuse(f *testing.F) {
	for seed := 0; seed < trialCount(f, 16); seed++ {
		f.Add(int64(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		net := nettest.Random(rng, nettest.Options{})
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Skip() // generator produced a non-schedulable corner case
		}
		s, err := sched.FindFeasible(tg, 1+rng.Intn(3))
		if err != nil {
			t.Skip()
		}
		p, err := plan.Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		framesA := 1 + rng.Intn(3)
		framesB := 1 + rng.Intn(3)
		horizon := tg.Hyperperiod.MulInt(int64(framesA))
		cfgA := plan.Config{
			Frames:         framesA,
			SporadicEvents: nettest.RandomEvents(rng, net, horizon),
			Inputs:         nettest.Inputs(net, 100),
			RecordTrace:    seed%2 == 0,
		}
		cfgB := cfgA
		cfgB.Frames = framesB
		cfgB.SporadicEvents = nil
		cfgB.RecordTrace = !cfgA.RecordTrace
		rs := p.NewRunState()
		for step, cfg := range []plan.Config{cfgA, cfgB, cfgA} {
			concurrent := (int64(step)+seed)%2 == 0
			gotJSON, gotOutputs := runPooled(t, rs, cfg, concurrent)
			checkAgainstFresh(t, p, cfg, concurrent,
				fmt.Sprintf("step %d", step), gotJSON, gotOutputs)
		}
	})
}

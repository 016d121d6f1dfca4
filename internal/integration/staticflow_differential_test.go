// Differential harness for the static dataflow analysis: the symbolic
// token-counting sweep (staticflow.Buffers) must reproduce the executed
// buffer sweep (executedBufferBounds) exactly — the same high-water
// marks, the same per-frame backlogs, the same unbalance verdicts — and
// the processor-demand lower bound (taskgraph.JobTicks.Demand) must never
// exceed the exact sched.MinProcessors. Checked on the paper
// applications and a corpus of random networks.
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
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/staticflow"
	"repro/internal/taskgraph"
)

// assertStaticBuffersMatch runs both buffer analyses and fails unless
// the static profile equals the executed report field by field.
func assertStaticBuffersMatch(t *testing.T, net *core.Network, frames int,
	events map[string][]core.Time, inputs map[string][]core.Value) {
	t.Helper()
	static, err := staticflow.Buffers(net, frames, events)
	if err != nil {
		t.Fatalf("staticflow.Buffers: %v", err)
	}
	exec, err := executedBufferBounds(net, frames, events, inputs)
	if err != nil {
		t.Fatalf("executedBufferBounds: %v", err)
	}
	if got, want := static.HighWater(), exec.HighWater; !reflect.DeepEqual(got, want) {
		t.Fatalf("high-water marks diverge:\nstatic:   %v\nexecuted: %v", got, want)
	}
	if got, want := static.EndOfFrameBacklog(), exec.EndOfFrameBacklog; !reflect.DeepEqual(got, want) {
		t.Fatalf("end-of-frame backlogs diverge:\nstatic:   %v\nexecuted: %v", got, want)
	}
	if got, want := static.Unbalanced(), exec.Unbalanced; !reflect.DeepEqual(got, want) {
		t.Fatalf("unbalance verdicts diverge:\nstatic:   %v\nexecuted: %v", got, want)
	}
}

// assertDemandBelowMinProcessors checks the one-sided invariant: the
// closed-form demand bound may be loose but must never exceed the
// processor count the scheduler actually needs.
func assertDemandBelowMinProcessors(t *testing.T, net *core.Network) {
	t.Helper()
	w, err := demandBound(net)
	if err != nil {
		t.Fatalf("demand bound: %v", err)
	}
	tg, err := taskgraph.Derive(net)
	if err != nil {
		t.Fatalf("taskgraph.Derive: %v", err)
	}
	s, err := sched.MinProcessors(tg, len(tg.Jobs)+1)
	if err != nil {
		t.Skipf("no feasible schedule up to %d processors: %v", len(tg.Jobs)+1, err)
	}
	if w.Processors() > s.M {
		t.Fatalf("demand lower bound %d exceeds MinProcessors %d (witness [%v, %v] demand %v)",
			w.Processors(), s.M, w.Start, w.End, w.Demand)
	}
}

// TestStaticBuffersDifferentialPaperApps pins the static sweep to the
// executed analysis on the three paper applications, with sporadic
// events exercising the server paths.
func TestStaticBuffersDifferentialPaperApps(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		build  func() *core.Network
		frames int
		events map[string][]core.Time
		inputs map[string][]core.Value
	}{
		{
			name: "signal", build: signal.New, frames: 3,
			events: map[string][]core.Time{signal.CoefB: {rational.Milli(50), rational.Milli(900)}},
			inputs: signal.Inputs(7),
		},
		{
			name: "fft", build: fft.New, frames: 2,
			inputs: fft.Inputs([]fft.Frame{{1, 2, 3, 4}, {4, 3, 2, 1}}),
		},
		{name: "fft-overhead", build: fft.NewWithOverheadJob, frames: 2,
			inputs: fft.Inputs([]fft.Frame{{1, 2, 3, 4}, {4, 3, 2, 1}})},
		{
			name: "fms", build: fms.New, frames: 2,
			events: map[string][]core.Time{
				fms.AnemoConfig:      {rational.Milli(40)},
				fms.MagnDeclinConfig: {rational.Milli(500)},
			},
			inputs: fms.Inputs(50),
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			assertStaticBuffersMatch(t, tc.build(), tc.frames, tc.events, tc.inputs)
		})
	}
}

// TestExecutedBufferBoundsRefusesSelfLoop pins the oracle's guard: on a
// channel a process both writes and reads, the length after a job is not
// the job's peak, so the executed sweep must refuse the network.
func TestExecutedBufferBoundsRefusesSelfLoop(t *testing.T) {
	t.Parallel()
	net := core.NewNetwork("self-loop")
	net.AddPeriodic("p", rational.Milli(100), rational.Milli(100), rational.Milli(1),
		core.BehaviorFunc(func(ctx *core.JobContext) error {
			ctx.Write("acc", 1)
			ctx.Read("acc")
			return nil
		}))
	net.Connect("p", "p", "acc", core.FIFO)
	if _, err := executedBufferBounds(net, 2, nil, nil); err == nil {
		t.Fatal("executed sweep accepted a channel that loops back to its own process")
	}
}

// TestStaticDemandPaperApps checks the demand invariant on the paper
// applications.
func TestStaticDemandPaperApps(t *testing.T) {
	t.Parallel()
	for _, app := range []struct {
		name  string
		build func() *core.Network
	}{
		{"signal", signal.New},
		{"fft", fft.New},
		{"fft-overhead", fft.NewWithOverheadJob},
		{"fms", fms.New},
	} {
		app := app
		t.Run(app.name, func(t *testing.T) {
			t.Parallel()
			assertDemandBelowMinProcessors(t, app.build())
		})
	}
}

// TestStaticflowDifferentialRandomNetworks sweeps ≥50 random networks
// through both invariants: buffer equality (with random sporadic
// events) and the demand/MinProcessors order.
func TestStaticflowDifferentialRandomNetworks(t *testing.T) {
	trials := trialCount(t, 50)
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < trials; trial++ {
		net := nettest.Random(rng, nettest.Options{})
		frames := 2 + rng.Intn(3)
		h, err := core.Hyperperiod(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		events := nettest.RandomEvents(rng, net, h.MulInt(int64(frames)))
		trial := trial
		t.Run(fmt.Sprintf("net%03d", trial), func(t *testing.T) {
			t.Parallel()
			assertStaticBuffersMatch(t, net, frames, events, nettest.Inputs(net, 8))
			if _, err := taskgraph.Derive(net); err != nil {
				t.Skip() // generator produced a non-schedulable corner case
			}
			assertDemandBelowMinProcessors(t, net)
		})
	}
}

// TestSuggestFPCompletesCoverage applies the suggested edge set to
// networks with uncovered channels and checks that every FPPN003
// problem disappears while the FP graph stays acyclic.
func TestSuggestFPCompletesCoverage(t *testing.T) {
	t.Parallel()
	trials := trialCount(t, 25)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < trials; trial++ {
		net := nettest.Random(rng, nettest.Options{})
		// Strip a few priority edges by cloning the structure without
		// them, leaving channels uncovered.
		stripped := core.NewNetwork(net.Name)
		for _, p := range net.Processes() {
			stripped.AddProcess(p.Name, p.Gen, p.WCET, p.Behavior)
		}
		for _, c := range net.Channels() {
			nc := stripped.Connect(c.Writer, c.Reader, c.Name, c.Kind)
			nc.Initial, nc.HasInitial = c.Initial, c.HasInitial
		}
		for _, e := range net.PriorityEdges() {
			if rng.Intn(2) == 0 {
				stripped.Priority(e[0], e[1])
			}
		}
		suggestions := staticflow.SuggestFP(stripped)
		for _, s := range suggestions {
			stripped.Priority(s.Hi, s.Lo)
		}
		for _, p := range stripped.Problems() {
			if p.Code == core.CodeFPCoverage {
				t.Fatalf("trial %d: channel %q still uncovered after applying %d suggestions",
					trial, p.Subject, len(suggestions))
			}
			if p.Code == core.CodeFPCycle {
				t.Fatalf("trial %d: suggestions created an FP cycle", trial)
			}
		}
		// Minimality: removing any suggested edge must reopen coverage.
		for i, s := range suggestions {
			reduced := core.NewNetwork(net.Name)
			for _, p := range stripped.Processes() {
				reduced.AddProcess(p.Name, p.Gen, p.WCET, p.Behavior)
			}
			for _, c := range stripped.Channels() {
				reduced.Connect(c.Writer, c.Reader, c.Name, c.Kind)
			}
			for _, e := range stripped.PriorityEdges() {
				if e[0] == s.Hi && e[1] == s.Lo {
					continue
				}
				reduced.Priority(e[0], e[1])
			}
			uncovered := false
			for _, p := range reduced.Problems() {
				if p.Code == core.CodeFPCoverage {
					uncovered = true
				}
			}
			if !uncovered {
				t.Fatalf("trial %d: suggestion %d (%s -> %s) is redundant", trial, i, s.Hi, s.Lo)
			}
		}
	}
}

// Package integration cross-checks every executor in the repository on
// randomly generated fixed-priority process networks: the zero-delay
// reference (Section II), the discrete-event and goroutine-based
// static-order runtimes (Section IV), the generated timed-automata systems
// (Section V) and the idealized uniprocessor fixed-priority baseline. All
// of them must produce identical channel values — Propositions 2.1 and 4.1
// at scale.
//
// Trial counts default to a CI-friendly size and can be raised with the
// FPPN_FUZZ_TRIALS environment variable (FPPN_FUZZ_TRIALS=500 go test ...).
// Random data is drawn sequentially from a fixed seed before any subtest
// runs, so the generated cases are identical regardless of the trial
// parallelism.
package integration

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/nettest"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
	"repro/internal/unisched"
)

const defaultTrials = 25

// trialCount returns the number of randomized trials to run: the
// FPPN_FUZZ_TRIALS environment variable if set, else def.
func trialCount(t testing.TB, def int) int {
	t.Helper()
	s := os.Getenv("FPPN_FUZZ_TRIALS")
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		t.Fatalf("bad FPPN_FUZZ_TRIALS=%q: want a positive integer", s)
	}
	return n
}

func TestCrossExecutorDeterminism(t *testing.T) {
	type executorCase struct {
		net     *core.Network
		tg      *taskgraph.TaskGraph
		horizon core.Time
		events  map[string][]core.Time
		inputs  map[string][]core.Value
		m       int
	}
	const frames = 3

	// Draw every random quantity up front, in trial order, so the case
	// set is independent of subtest scheduling.
	trials := trialCount(t, defaultTrials)
	rng := rand.New(rand.NewSource(2025))
	cases := make([]executorCase, trials)
	for trial := range cases {
		net := nettest.Random(rng, nettest.Options{})
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Fatalf("trial %d: derive: %v", trial, err)
		}
		horizon := tg.Hyperperiod.MulInt(int64(frames))
		cases[trial] = executorCase{
			net:     net,
			tg:      tg,
			horizon: horizon,
			events:  nettest.RandomEvents(rng, net, horizon),
			inputs:  nettest.Inputs(net, 200),
			m:       2 + rng.Intn(3),
		}
	}

	for trial, c := range cases {
		trial, c := trial, c
		t.Run(fmt.Sprintf("trial%03d", trial), func(t *testing.T) {
			t.Parallel()
			// Reference: zero-delay semantics with a randomized
			// FP-respecting order.
			ref, err := core.RunZeroDelay(c.net, c.horizon, core.ZeroDelayOptions{
				SporadicEvents: c.events,
				Inputs:         c.inputs,
				Seed:           int64(trial),
			})
			if err != nil {
				t.Fatalf("zero-delay: %v", err)
			}

			s, err := sched.FindFeasible(c.tg, c.m)
			if err != nil {
				// Lightly loaded by construction; more processors must
				// succeed.
				s, err = sched.FindFeasible(c.tg, len(c.tg.Jobs))
				if err != nil {
					t.Fatalf("no feasible schedule at all: %v", err)
				}
			}

			// Discrete-event runtime with execution-time jitter.
			jitter, err := platform.JitterExec(int64(trial), rational.New(1, 2))
			if err != nil {
				t.Fatal(err)
			}
			p, err := plan.Compile(s)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := p.Run(plan.Config{
				Frames: frames, SporadicEvents: c.events, Inputs: c.inputs, Exec: jitter,
			})
			if err != nil {
				t.Fatalf("Plan.Run: %v", err)
			}
			if len(rep.Misses) != 0 {
				t.Fatalf("runtime missed deadlines on a feasible schedule: %v",
					rep.Misses[0])
			}
			if !core.SamplesEqual(ref.Outputs, rep.Outputs) {
				t.Fatalf("runtime diverges: %s",
					core.DiffSamples(ref.Outputs, rep.Outputs))
			}

			// Goroutine-per-processor runtime.
			conc, err := p.RunConcurrent(plan.Config{
				Frames: frames, SporadicEvents: c.events, Inputs: c.inputs, Exec: jitter,
			})
			if err != nil {
				t.Fatalf("Plan.RunConcurrent: %v", err)
			}
			if !core.SamplesEqual(ref.Outputs, conc.Outputs) {
				t.Fatalf("concurrent runtime diverges: %s",
					core.DiffSamples(ref.Outputs, conc.Outputs))
			}

			// Generated timed-automata system (runs jobs at WCET).
			prog, err := codegen.Generate(s, codegen.Config{
				Frames: frames, SporadicEvents: c.events, Inputs: c.inputs,
			})
			if err != nil {
				t.Fatalf("codegen: %v", err)
			}
			taRep, err := prog.Run()
			if err != nil {
				t.Fatalf("TA run: %v", err)
			}
			if !core.SamplesEqual(ref.Outputs, taRep.Outputs) {
				t.Fatalf("TA system diverges: %s",
					core.DiffSamples(ref.Outputs, taRep.Outputs))
			}
		})
	}
}

// TestUniprocessorEquivalenceOnRandomNetworks: whenever the uniprocessor
// scheduling priorities extend the FP DAG, the legacy fixed-priority system
// agrees with the FPPN zero-delay semantics.
func TestUniprocessorEquivalenceOnRandomNetworks(t *testing.T) {
	type uniCase struct {
		net    *core.Network
		events map[string][]core.Time
		inputs map[string][]core.Value
	}
	horizon := rational.FromInt(2)

	trials := trialCount(t, defaultTrials)
	rng := rand.New(rand.NewSource(77))
	cases := make([]uniCase, trials)
	for trial := range cases {
		net := nettest.Random(rng, nettest.Options{})
		cases[trial] = uniCase{
			net:    net,
			events: nettest.RandomEvents(rng, net, horizon),
			inputs: nettest.Inputs(net, 100),
		}
	}

	for trial, c := range cases {
		trial, c := trial, c
		t.Run(fmt.Sprintf("trial%03d", trial), func(t *testing.T) {
			t.Parallel()
			order, err := c.net.TopoOrder()
			if err != nil {
				t.Fatal(err)
			}
			pr := make(unisched.Priority, len(order))
			for i, p := range order {
				pr[p] = i
			}
			if err := unisched.Consistent(c.net, pr); err != nil {
				t.Fatalf("topological priorities inconsistent: %v", err)
			}

			legacy, err := unisched.RunFunctional(c.net, horizon, pr, c.events, c.inputs, false)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.RunZeroDelay(c.net, horizon, core.ZeroDelayOptions{
				SporadicEvents: c.events, Inputs: c.inputs, Seed: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !core.SamplesEqual(legacy.Outputs, ref.Outputs) {
				t.Fatalf("legacy baseline diverges: %s",
					core.DiffSamples(legacy.Outputs, ref.Outputs))
			}
		})
	}
}

// TestTaskGraphInvariantsOnRandomNetworks checks structural invariants of
// the derivation across random networks: topological edge order, server
// metadata, deadline truncation, ASAP/ALAP consistency and the Load bound.
func TestTaskGraphInvariantsOnRandomNetworks(t *testing.T) {
	trials := trialCount(t, 60)
	rng := rand.New(rand.NewSource(13))
	nets := make([]*core.Network, trials)
	for trial := range nets {
		nets[trial] = nettest.Random(rng, nettest.Options{})
	}

	for trial, net := range nets {
		trial, net := trial, net
		t.Run(fmt.Sprintf("trial%03d", trial), func(t *testing.T) {
			t.Parallel()
			tg, err := taskgraph.Derive(net)
			if err != nil {
				t.Fatal(err)
			}
			asap := tg.ASAP()
			alap := tg.ALAP()
			for i, j := range tg.Jobs {
				if tg.Hyperperiod.Less(j.Deadline) {
					t.Fatalf("deadline %v beyond hyperperiod", j.Deadline)
				}
				if asap[i].Less(j.Arrival) {
					t.Fatal("ASAP before arrival")
				}
				if alap[i].Less(asap[i]) && asap[i].Add(j.WCET).LessEq(alap[i]) {
					t.Fatal("inconsistent ASAP/ALAP")
				}
				for _, s := range tg.Succ[i] {
					if s <= i {
						t.Fatal("edge not forward in <_J order")
					}
				}
				if j.Server {
					if _, ok := tg.ServerPeriod[j.Proc]; !ok {
						t.Fatal("server job without server period")
					}
					if j.Subset < 1 || j.SlotInSubset < 1 {
						t.Fatal("bad server metadata")
					}
				}
			}
			// ⌈Load⌉ processors are necessary; the necessary check must
			// pass at that count unless a window is over-constrained.
			load := tg.Load()
			if load.Sign() <= 0 {
				t.Fatal("non-positive load")
			}
		})
	}
}

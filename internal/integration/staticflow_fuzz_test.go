package integration

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/nettest"
	"repro/internal/sched"
	"repro/internal/staticflow"
	"repro/internal/taskgraph"
)

// FuzzStaticBuffersMatchExecuted feeds seeds into the random-network
// generator and demands that the symbolic token-counting sweep reproduce
// the executed buffer sweep exactly — same high-water marks, same
// per-frame backlogs, same unbalance verdicts. As a plain test it replays
// a seed corpus sized by FPPN_FUZZ_TRIALS; under `go test -fuzz` the
// engine pair is explored with arbitrary seeds.
func FuzzStaticBuffersMatchExecuted(f *testing.F) {
	for seed := 0; seed < trialCount(f, 16); seed++ {
		f.Add(int64(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		net := nettest.Random(rng, nettest.Options{})
		frames := 2 + rng.Intn(3)
		h, err := core.Hyperperiod(net, nil)
		if err != nil {
			t.Skip()
		}
		events := nettest.RandomEvents(rng, net, h.MulInt(int64(frames)))
		inputs := nettest.Inputs(net, 8)
		static, sErr := staticflow.Buffers(net, frames, events)
		exec, eErr := executedBufferBounds(net, frames, events, inputs)
		if (sErr == nil) != (eErr == nil) {
			t.Fatalf("error verdict mismatch: static %v, executed %v", sErr, eErr)
		}
		if sErr != nil {
			t.Skip()
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
	})
}

// FuzzDemandBoundBelowMinProcessors checks the one-sided schedulability
// invariant on arbitrary seeds: the closed-form processor-demand lower
// bound never exceeds the processor count found by the exact
// minimum-processor search.
func FuzzDemandBoundBelowMinProcessors(f *testing.F) {
	for seed := 0; seed < trialCount(f, 16); seed++ {
		f.Add(int64(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		net := nettest.Random(rng, nettest.Options{})
		rep, err := staticflow.Demand(net)
		if err != nil {
			t.Skip()
		}
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Skip()
		}
		s, err := sched.MinProcessors(tg, len(tg.Jobs)+1)
		if err != nil {
			t.Skip()
		}
		if rep.LowerBound > s.M {
			t.Fatalf("seed %d: demand lower bound %d exceeds MinProcessors %d (witness [%v, %v] demand %v)",
				seed, rep.LowerBound, s.M, rep.Critical.Start, rep.Critical.End, rep.Critical.Demand)
		}
	})
}

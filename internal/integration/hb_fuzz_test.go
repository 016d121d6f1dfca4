package integration

import (
	"math/rand"
	"testing"

	"repro/internal/hb"
	"repro/internal/nettest"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// FuzzHBSoundVsConcurrentTrace feeds seeds into the random-network
// generator and checks the happens-before verifier's soundness end to
// end: a derived plan must certify race-free, and the certified plan's
// sequential and concurrent replays must serialize identically (after
// the canonical Gantt ordering). As a plain test it replays a seed
// corpus sized by FPPN_FUZZ_TRIALS; under `go test -fuzz` arbitrary
// seeds explore the verifier against the real engines.
func FuzzHBSoundVsConcurrentTrace(f *testing.F) {
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
		m := 1 + rng.Intn(4)
		s, err := sched.FindFeasible(tg, m)
		if err != nil {
			s, err = sched.FindFeasible(tg, len(tg.Jobs))
			if err != nil {
				t.Skip()
			}
		}
		p, err := plan.Compile(s)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		if v := hb.Verify(p); !v.RaceFree {
			t.Fatalf("valid plan not certified race-free: %v", v)
		}
		frames := 1 + rng.Intn(2)
		jitter, err := platform.JitterExec(seed, rational.New(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		cfg := plan.Config{
			Frames:         frames,
			SporadicEvents: nettest.RandomEvents(rng, net, tg.Hyperperiod.MulInt(int64(frames))),
			Inputs:         nettest.Inputs(net, 100),
			Exec:           jitter,
		}
		seq, err := p.Run(cfg)
		if err != nil {
			t.Fatalf("plan run: %v", err)
		}
		conc, err := p.RunConcurrent(cfg)
		if err != nil {
			t.Fatalf("plan concurrent run: %v", err)
		}
		normalizeGantt(seq)
		normalizeGantt(conc)
		if got, want := reportJSON(t, conc), reportJSON(t, seq); got != want {
			t.Fatalf("certified race-free, but concurrent replay diverges from sequential")
		}
	})
}

// FuzzHBMatchesReference compares hb.Verify with the rational reference
// verifier on arbitrary seeds: random networks, covered or with uncovered
// channels, scheduled on 1–4 processors by a random heuristic.
func FuzzHBMatchesReference(f *testing.F) {
	for seed := 0; seed < trialCount(f, 16); seed++ {
		f.Add(int64(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		uncovered := seed%2 != 0
		net := nettest.Random(rng, nettest.Options{})
		if uncovered {
			net = randomUncovered(rng)
		}
		tg, err := taskgraph.DeriveOpts(net, taskgraph.Options{AllowUncoveredChannels: uncovered})
		if err != nil {
			t.Skip()
		}
		s, err := sched.ListSchedule(tg, 1+rng.Intn(4), sched.Heuristics[rng.Intn(len(sched.Heuristics))])
		if err != nil {
			t.Skip()
		}
		assertHBMatchesReference(t, s, uncovered)
	})
}

package integration

import (
	"math/rand"
	"testing"

	"repro/internal/feas"
	"repro/internal/nettest"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// FuzzFeasSoundVsMinProcessors explores the soundness sandwich with
// arbitrary seeds: no schedulability test may claim feasibility below
// the closed-form demand lower bound, certified feasibility must be
// realized by the list scheduler, and infeasibility must lie strictly
// below the exact MinProcessors. As a plain test it replays a seed
// corpus sized by FPPN_FUZZ_TRIALS.
func FuzzFeasSoundVsMinProcessors(f *testing.F) {
	for seed := 0; seed < trialCount(f, 16); seed++ {
		f.Add(int64(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		net := nettest.Random(rng, nettest.Options{})
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Skip()
		}
		dem, demErr := demandBound(net)
		oracle, oracleErr := sched.MinProcessors(tg, len(tg.Jobs)+1)
		for _, m := range []int{1, 2, len(tg.Jobs)} {
			if m < 1 {
				continue
			}
			rep, err := feas.Analyze(tg, m, feas.Options{})
			if err != nil {
				t.Skip()
			}
			if oracleErr == nil && rep.Workload.MinProcessorsLB() > oracle.M {
				t.Fatalf("seed %d m=%d: workload lower bound %d exceeds MinProcessors %d",
					seed, m, rep.Workload.MinProcessorsLB(), oracle.M)
			}
			for _, res := range rep.Results {
				switch res.Verdict {
				case feas.Feasible:
					if demErr == nil && m < dem.Processors() {
						t.Fatalf("seed %d m=%d: %s feasible below demand bound %d (%s)",
							seed, m, res.Test, dem.Processors(), res.Reason)
					}
					if res.Certified {
						if _, err := sched.FindFeasible(tg, m); err != nil {
							t.Fatalf("seed %d m=%d: %s certified but list scheduler fails: %v",
								seed, m, res.Test, err)
						}
					}
				case feas.Infeasible:
					if oracleErr == nil && oracle.M <= m {
						t.Fatalf("seed %d m=%d: %s infeasible at or above MinProcessors %d (%s)",
							seed, m, res.Test, oracle.M, res.Reason)
					}
				}
			}
		}
	})
}

// FuzzFeasNeverPanics drives Analyze across arbitrary seeds and processor
// counts and demands a well-formed report every time: one
// result per registered test, in order, never a certified infeasibility,
// and a combined verdict that is computable. Analyze must convert every
// internal failure into an error instead of panicking.
func FuzzFeasNeverPanics(f *testing.F) {
	for seed := 0; seed < trialCount(f, 16); seed++ {
		f.Add(int64(seed), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, mRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		net := nettest.Random(rng, nettest.Options{})
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Skip()
		}
		m := 1 + int(mRaw)%(len(tg.Jobs)+2)
		rep, err := feas.Analyze(tg, m, feas.Options{})
		if err != nil {
			t.Skip()
		}
		if len(rep.Results) != len(feas.Tests) {
			t.Fatalf("seed %d m=%d: %d results for %d tests", seed, m, len(rep.Results), len(feas.Tests))
		}
		for i, res := range rep.Results {
			if res.Test != feas.Tests[i] {
				t.Fatalf("seed %d m=%d: result %d is %s, want %s", seed, m, i, res.Test, feas.Tests[i])
			}
			if res.M != m {
				t.Fatalf("seed %d m=%d: result %d reports m=%d", seed, m, i, res.M)
			}
			if res.Verdict != feas.Feasible && res.Certified {
				t.Fatalf("seed %d m=%d: %s certifies a %s verdict", seed, m, res.Test, res.Verdict)
			}
			if res.Reason == "" {
				t.Fatalf("seed %d m=%d: %s verdict has no reason", seed, m, res.Test)
			}
		}
		_ = rep.Verdict()
	})
}

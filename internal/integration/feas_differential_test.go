// Differential harness for the schedulability suite: every feas verdict
// is pinned inside the soundness sandwich between the closed-form demand
// lower bound and the exact scheduler oracle. A test may never claim
// feasibility below the nominal processor-demand bound, a certified
// feasible verdict must be realized by sched.FindFeasible, and an
// infeasible verdict must lie strictly below sched.MinProcessors.
// Checked on the paper applications and a corpus of random networks, at
// one processor, the CLI default of two, and one processor per job.
package integration

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps/fft"
	"repro/internal/apps/fms"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/nettest"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// feasProcessorCounts returns the processor counts the sandwich is
// checked at: 1, the CLI default 2, and one processor per job.
func feasProcessorCounts(tg *taskgraph.TaskGraph) []int {
	counts := []int{1, 2}
	if n := len(tg.Jobs); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// assertFeasSound runs the suite at each processor count and checks the
// one-sided soundness invariants against the demand bound and the exact
// scheduler.
func assertFeasSound(t *testing.T, net *core.Network, tg *taskgraph.TaskGraph) {
	t.Helper()
	dem, demErr := demandBound(net)
	oracle, oracleErr := sched.MinProcessors(tg, len(tg.Jobs)+1)
	for _, m := range feasProcessorCounts(tg) {
		rep, err := feas.Analyze(tg, m, feas.Options{})
		if err != nil {
			t.Fatalf("feas.Analyze(m=%d): %v", m, err)
		}
		if oracleErr == nil && rep.Workload.MinProcessorsLB() > oracle.M {
			t.Errorf("m=%d: workload lower bound %d exceeds MinProcessors %d",
				m, rep.Workload.MinProcessorsLB(), oracle.M)
		}
		for _, res := range rep.Results {
			switch res.Verdict {
			case feas.Feasible:
				if demErr == nil && m < dem.Processors() {
					t.Errorf("m=%d: %s claims feasible below the demand lower bound %d (%s)",
						m, res.Test, dem.Processors(), res.Reason)
				}
				if res.Certified {
					if _, err := sched.FindFeasible(tg, m); err != nil {
						t.Errorf("m=%d: %s certifies feasibility but the list scheduler fails: %v (%s)",
							m, res.Test, err, res.Reason)
					}
				}
			case feas.Infeasible:
				if oracleErr == nil && oracle.M <= m {
					t.Errorf("m=%d: %s claims infeasible at or above MinProcessors %d (%s)",
						m, res.Test, oracle.M, res.Reason)
				}
			}
		}
	}
}

// TestFeasDifferentialPaperApps pins the sandwich on the paper
// applications: the Fig. 3 signal pipeline, both FFT variants and the
// reduced FMS.
func TestFeasDifferentialPaperApps(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name  string
		build func() *core.Network
	}{
		{"signal", signal.New},
		{"fft", fft.New},
		{"fft-overhead", fft.NewWithOverheadJob},
		{"fms", fms.New},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			net := tc.build()
			tg, err := taskgraph.Derive(net)
			if err != nil {
				t.Fatalf("taskgraph.Derive: %v", err)
			}
			assertFeasSound(t, net, tg)
		})
	}
}

// TestFeasDifferentialRandom runs the sandwich over a corpus of random
// networks (size tunable with FPPN_FUZZ_TRIALS).
func TestFeasDifferentialRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4242))
	want := trialCount(t, 50)
	built := 0
	for attempt := 0; built < want && attempt < 20*want; attempt++ {
		net := nettest.Random(rng, nettest.Options{})
		tg, err := taskgraph.Derive(net)
		if err != nil {
			continue
		}
		built++
		t.Run(fmt.Sprintf("net%03d", built), func(t *testing.T) {
			t.Parallel()
			assertFeasSound(t, net, tg)
		})
	}
	if built < want {
		t.Fatalf("only %d of %d random networks derivable", built, want)
	}
}

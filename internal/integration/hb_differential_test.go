// Differential soundness harness for the happens-before verifier
// (internal/hb): a race-free verdict claims that every conflicting
// access pair of the compiled plan is ordered, which by Proposition 2.1
// implies the sequential and the goroutine-per-processor engines produce
// byte-identical reports. The harness certifies plans on the paper
// applications and a random-network corpus, then replays each certified
// plan through Plan.Run and Plan.RunConcurrent and demands
// byte-equal canonical JSON — an end-to-end check that the verifier's
// "race-free" is never vacuous.
package integration

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/apps/fft"
	"repro/internal/apps/fms"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/nettest"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// normalizeGantt sorts a report's executed intervals by (start, proc):
// the two engines emit simultaneous entries on different processors in
// different (each individually deterministic) orders, and Proposition
// 2.1 promises identical observable results, not identical trace
// interleaving. Everything else — outputs, misses, channel states,
// interval contents — must match byte for byte.
func normalizeGantt(rep *plan.Report) {
	sort.SliceStable(rep.Entries, func(i, j int) bool {
		a, b := rep.Entries[i], rep.Entries[j]
		if c := a.Start.Cmp(b.Start); c != 0 {
			return c < 0
		}
		return a.Proc < b.Proc
	})
}

// certifyAndReplay verifies the plan race-free and demands byte-identical
// sequential and concurrent replays.
func certifyAndReplay(t *testing.T, s *sched.Schedule, cfg plan.Config) {
	t.Helper()
	p, err := plan.Compile(s)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	v := hb.Verify(p)
	if !v.RaceFree {
		t.Fatalf("valid plan not certified race-free: %v", v)
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
}

// TestHBCertifiedPlansReplayIdentical certifies the paper applications
// at several processor counts and replays each certified plan through
// both engines with the applications' typed inputs and sporadic events.
func TestHBCertifiedPlansReplayIdentical(t *testing.T) {
	cases := []struct {
		name   string
		build  func() *core.Network
		frames int
		inputs map[string][]core.Value
		events map[string][]core.Time
	}{
		{
			name: "signal", build: signal.New, frames: 4,
			inputs: signal.Inputs(4),
			events: map[string][]core.Time{signal.CoefB: {rational.Milli(50), rational.Milli(400)}},
		},
		{
			name: "fft", build: fft.New, frames: 2,
			inputs: fft.Inputs([]fft.Frame{{1, 2, 3, 4}, {5, 6, 7, 8}}),
		},
		{
			name: "fms", build: fms.New, frames: 1,
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
			for _, m := range []int{1, 2, len(tg.Jobs)} {
				s, err := sched.FindFeasible(tg, m)
				if err != nil {
					continue // infeasible at this capacity; nothing to certify
				}
				certifyAndReplay(t, s, plan.Config{
					Frames:         c.frames,
					Inputs:         c.inputs,
					SporadicEvents: c.events,
				})
			}
		})
	}
}

// TestHBSoundOnRandomNetworks sweeps ≥50 random networks (raise with
// FPPN_FUZZ_TRIALS): every derived plan must certify race-free — the
// derivation covers all channels by construction — and every certified
// plan must replay identically under execution-time jitter.
func TestHBSoundOnRandomNetworks(t *testing.T) {
	trials := trialCount(t, 50)
	rng := rand.New(rand.NewSource(27182))
	type hbCase struct {
		net    *core.Network
		tg     *taskgraph.TaskGraph
		events map[string][]core.Time
		m      int
	}
	cases := make([]hbCase, trials)
	for trial := range cases {
		net := nettest.Random(rng, nettest.Options{})
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Fatalf("trial %d: derive: %v", trial, err)
		}
		cases[trial] = hbCase{
			net:    net,
			tg:     tg,
			events: nettest.RandomEvents(rng, net, tg.Hyperperiod.MulInt(2)),
			m:      2 + rng.Intn(3),
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
			jitter, err := platform.JitterExec(int64(trial), rational.New(1, 2))
			if err != nil {
				t.Fatal(err)
			}
			certifyAndReplay(t, s, plan.Config{
				Frames:         2,
				SporadicEvents: c.events,
				Inputs:         nettest.Inputs(c.net, 200),
				Exec:           jitter,
			})
		})
	}
}

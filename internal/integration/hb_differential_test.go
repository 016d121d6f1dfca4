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
	"reflect"
	"sort"
	"testing"

	"repro/internal/apps"
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
		if a.Start != b.Start {
			return a.Start < b.Start
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

// assertHBMatchesReference compiles the schedule and demands that
// hb.Verify return the rational reference verifier's verdict, every field
// including the witness and the graph sizes.
func assertHBMatchesReference(t *testing.T, s *sched.Schedule, uncovered bool) hb.Verdict {
	t.Helper()
	p, err := plan.CompileOpts(s, plan.CompileOptions{AllowUncoveredChannels: uncovered})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	got, want := hb.Verify(p), hbVerifyReference(p)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts diverge:\ngot:  %+v (witness %v)\nwant: %+v (witness %v)", got, got.Witness, want, want.Witness)
	}
	return got
}

// randomUncovered builds a random network whose channels get an FP edge
// between their endpoints only half of the time, with heavy WCETs so that
// multiprocessor schedules leave uncovered accesses unordered.
func randomUncovered(rng *rand.Rand) *core.Network {
	n := core.NewNetwork(fmt.Sprintf("uncovered-%d", rng.Int63()))
	stub := core.BehaviorFunc(func(*core.JobContext) error { return nil })
	procs := 2 + rng.Intn(4)
	for i := 0; i < procs; i++ {
		period := []int64{100, 200, 400}[rng.Intn(3)]
		n.AddPeriodic(fmt.Sprintf("p%d", i), rational.Milli(period), rational.Milli(period),
			rational.Milli(1+rng.Int63n(period/3)), stub)
	}
	for i := 0; i < procs; i++ {
		for j := i + 1; j < procs; j++ {
			if rng.Intn(2) == 0 {
				continue
			}
			a, b := fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", j)
			if rng.Intn(3) == 0 {
				n.ConnectInit(a, b, a+b, 0)
			} else {
				n.Connect(a, b, a+b, core.FIFO)
			}
			if rng.Intn(2) == 0 {
				n.Priority(a, b)
			}
		}
	}
	return n
}

// TestHBMatchesReference pins the tick-gated verifier to the rational one
// on the paper applications at 1–4 processors under every heuristic, on
// random networks (some with deadline slack, so the window spans more
// than two frames), on random networks with uncovered channels, and on
// hand-built schedules whose same-process and cross-frame pairs go
// unordered, where witnesses and unordered counts are exercised.
func TestHBMatchesReference(t *testing.T) {
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			net, err := apps.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			tg, err := taskgraph.Derive(net)
			if err != nil {
				t.Fatal(err)
			}
			for m := 1; m <= 4; m++ {
				for _, h := range sched.Heuristics {
					s, err := sched.ListSchedule(tg, m, h)
					if err != nil {
						t.Fatal(err)
					}
					assertHBMatchesReference(t, s, false)
				}
			}
		})
	}
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < trialCount(t, 40); trial++ {
		net := nettest.Random(rng, nettest.Options{})
		// Deadline slack stretches the window past two frames.
		slack := rational.Milli(int64(rng.Intn(4)) * 300)
		tg, err := taskgraph.DeriveOpts(net, taskgraph.Options{DeadlineSlack: slack})
		if err != nil {
			t.Fatalf("trial %d: derive: %v", trial, err)
		}
		s, err := sched.ListSchedule(tg, 1+rng.Intn(4), sched.Heuristics[rng.Intn(len(sched.Heuristics))])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertHBMatchesReference(t, s, false)
	}
	races := 0
	for trial := 0; trial < trialCount(t, 60); trial++ {
		net := randomUncovered(rng)
		tg, err := taskgraph.DeriveOpts(net, taskgraph.Options{AllowUncoveredChannels: true})
		if err != nil {
			t.Fatalf("uncovered trial %d: derive: %v", trial, err)
		}
		s, err := sched.ListSchedule(tg, 1+rng.Intn(4), sched.Heuristics[rng.Intn(len(sched.Heuristics))])
		if err != nil {
			t.Fatalf("uncovered trial %d: %v", trial, err)
		}
		if v := assertHBMatchesReference(t, s, true); v.Unordered > 0 {
			races++
		}
	}
	if races == 0 {
		t.Fatal("no uncovered network produced an unordered pair; the witness path went unchecked")
	}
	kinds := map[string]bool{}
	for trial := 0; trial < trialCount(t, 60); trial++ {
		tg, err := taskgraph.Derive(nettest.Random(rng, nettest.Options{}))
		if err != nil {
			t.Fatalf("hand-built trial %d: derive: %v", trial, err)
		}
		if v := assertHBMatchesReference(t, handBuiltSchedule(t, rng, tg, trial%3), false); v.Witness != nil {
			kinds[fmt.Sprintf("%s delta=%d", v.Witness.A.Op, v.Witness.B.Frame)] = true
		}
	}
	for _, k := range []string{"state delta=0", "writes delta=0", "state delta=1"} {
		if !kinds[k] {
			t.Errorf("no hand-built schedule produced a %q witness (got %v)", k, kinds)
		}
	}
}

// handBuiltSchedule returns an unvalidated schedule of a hand-built copy
// of tg whose deadlines are stretched, so that same-process and
// cross-frame pairs can go unordered. Mode 0 drops every precedence edge
// and starts jobs at random instants, some between the timescale's ticks,
// so chains and time separation can form cycles. Mode 1 keeps half of the
// edges and starts jobs at their arrivals, so the chains agree with
// precedence. Both stretch deadlines by 0, H/2 or H and use 1–4
// processors. Mode 2 keeps every edge, gives each job its own processor
// and stretches every deadline by H: every frame is ordered on its own,
// and only cross-frame pairs can race.
func handBuiltSchedule(t *testing.T, rng *rand.Rand, tg *taskgraph.TaskGraph, mode int) *sched.Schedule {
	n, h := len(tg.Jobs), tg.Hyperperiod
	hand := &taskgraph.TaskGraph{
		Net: tg.Net, Hyperperiod: h, ServerPeriod: tg.ServerPeriod, IncludeRight: tg.IncludeRight, User: tg.User,
		Succ: make([][]int, n), Pred: make([][]int, n),
	}
	for _, j := range tg.Jobs {
		c := *j
		stretch := int64(2)
		if mode < 2 {
			stretch = int64(rng.Intn(3))
		}
		c.Deadline = c.Deadline.Add(h.MulInt(stretch).DivInt(2))
		hand.Jobs = append(hand.Jobs, &c)
	}
	for _, e := range tg.Edges() {
		if mode == 2 || (mode == 1 && rng.Intn(2) == 0) {
			hand.Succ[e[0]] = append(hand.Succ[e[0]], e[1])
			hand.Pred[e[1]] = append(hand.Pred[e[1]], e[0])
		}
	}
	m := 1 + rng.Intn(4)
	if mode == 2 {
		m = n
	}
	procs, starts := make([]int, n), make([]rational.Rat, n)
	for i, j := range hand.Jobs {
		procs[i], starts[i] = i, j.Arrival
		if mode < 2 {
			procs[i] = rng.Intn(m)
		}
		if mode == 0 {
			starts[i] = h.MulInt(int64(rng.Intn(8))).DivInt(8).Add(rational.New(int64(rng.Intn(3)), 7000))
		}
	}
	s, err := sched.FromStarts(hand, m, sched.ALAPEDF, procs, starts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

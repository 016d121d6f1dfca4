package integration

// The exact-rational pipelined validator: the pre-tick implementation of
// sched.Schedule.ValidatePipelined, kept as its differential oracle. The
// tick version must reach the same verdict with the same error text on
// registry apps derived with a deadline slack, on list, portfolio and
// pipeline placements, on shifted and off-grid starts, and on random
// networks (FuzzValidatePipelinedMatchesReference).

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/nettest"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// validatePipelinedReference checks that the schedule repeats correctly
// with initiation interval H = tg.Hyperperiod, in rational arithmetic.
func validatePipelinedReference(s *refSchedule) error {
	tg := s.tg
	h := tg.Hyperperiod
	if err := validateReference(s); err != nil {
		return fmt.Errorf("sched: pipelined schedule fails base constraints: %w", err)
	}
	makespan, first := rational.Zero, rational.Zero
	for i := range tg.Jobs {
		if e := s.end(i); makespan.Less(e) {
			makespan = e
		}
		if i == 0 || s.starts[i].Less(first) {
			first = s.starts[i]
		}
	}
	span := makespan.Sub(first)
	if span.LessEq(h) {
		return nil
	}
	for p, jobs := range s.processorOrder() {
		for _, i := range jobs {
			for _, j := range jobs {
				for k := int64(1); h.MulInt(k).Less(span); k++ {
					shift := h.MulInt(k)
					if s.starts[i].Less(s.end(j).Add(shift)) && s.starts[j].Add(shift).Less(s.end(i)) {
						return fmt.Errorf(
							"sched: pipelined overlap on processor %d: %s of one repetition collides with %s of repetition +%d",
							p, tg.Jobs[i].Name(), tg.Jobs[j].Name(), k)
					}
				}
			}
		}
	}
	for i, ji := range tg.Jobs {
		for j, jj := range tg.Jobs {
			if !tg.Related(ji.Pid, jj.Pid) {
				continue
			}
			if s.starts[j].Add(h).Less(s.end(i)) {
				return fmt.Errorf(
					"sched: pipelined precedence violation: %s (end %v) overruns %s of the next repetition (start %v + H)",
					ji.Name(), s.end(i), jj.Name(), s.starts[j])
			}
		}
	}
	return nil
}

// assertPipelinedMatches fails unless ValidatePipelined and the rational
// reference agree on s, verdict and text; it returns the verdict.
func assertPipelinedMatches(t *testing.T, what string, s *sched.Schedule) error {
	t.Helper()
	got, want := s.ValidatePipelined(), validatePipelinedReference(refOf(s))
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: ValidatePipelined %v, rational reference %v", what, got, want)
	}
	return got
}

// pipelinedVariants returns s and copies of it with shifted starts: three
// jobs moved by their WCET, every job moved by H/2, every job delayed by
// all or half of the schedule's least deadline slack (which keeps a
// feasible schedule feasible and pushes its tail into the next frame),
// and one job moved off the graph's ticks by 1/7 of a tick. The other
// copies may start jobs past their deadlines; the validators must agree on
// those as well.
func pipelinedVariants(t *testing.T, s *sched.Schedule, rng *rand.Rand) []*sched.Schedule {
	t.Helper()
	jt, err := s.Ticks()
	if err != nil {
		t.Fatal(err)
	}
	n := len(s.Assign)
	if n == 0 {
		return []*sched.Schedule{s}
	}
	hT, ok := jt.Scale.Ticks(s.TG.Hyperperiod)
	if !ok {
		t.Fatalf("hyperperiod %v is off the 1/%d s table", s.TG.Hyperperiod, jt.Scale.Den())
	}
	shifted := func(shift func(i int, a *sched.Assignment)) *sched.Schedule {
		c := &sched.Schedule{TG: s.TG, M: s.M, Assign: append([]sched.Assignment(nil), s.Assign...), Heuristic: s.Heuristic}
		for i := range c.Assign {
			shift(i, &c.Assign[i])
		}
		return c
	}
	// slack is the largest uniform delay that keeps every deadline.
	slack := int64(math.MaxInt64)
	for i, a := range s.Assign {
		slack = min(slack, jt.Deadline[i]-a.Start-jt.WCET[i])
	}
	picked := map[int]bool{rng.Intn(n): true, rng.Intn(n): true, n - 1: true}
	out := []*sched.Schedule{s,
		shifted(func(i int, a *sched.Assignment) {
			if picked[i] {
				a.Start += jt.WCET[i]
			}
		}),
		shifted(func(i int, a *sched.Assignment) { a.Start += hT / 2 }),
		shifted(func(i int, a *sched.Assignment) { a.Start += max(slack, 0) }),
		shifted(func(i int, a *sched.Assignment) { a.Start += max(slack, 0) / 2 }),
	}
	procs, starts := make([]int, n), make([]rational.Rat, n)
	for i, a := range s.Assign {
		procs[i], starts[i] = a.Proc, s.StartTime(i)
	}
	k := rng.Intn(n)
	starts[k] = starts[k].Add(rational.New(1, 7*jt.Scale.Den()))
	off, err := sched.FromStarts(s.TG, s.M, s.Heuristic, procs, starts)
	if err != nil {
		t.Fatalf("off-grid start of %s: %v", s.TG.Jobs[k].Name(), err)
	}
	return append(out, off)
}

// latePlacement places every job on its process's own processor, at its
// ALAP start (latest completion minus WCET) when late, else at a start
// drawn between its ASAP and ALAP starts. With stretched deadlines such
// placements run past the frame, where repetitions can collide.
func latePlacement(t *testing.T, tg *taskgraph.TaskGraph, rng *rand.Rand, late bool) *sched.Schedule {
	t.Helper()
	w, err := tg.Windows()
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{TG: tg, M: len(tg.Net.Processes()), Assign: make([]sched.Assignment, len(tg.Jobs))}
	for i, j := range tg.Jobs {
		start := w.ALAP[i] - w.WCET[i]
		if span := start - w.ASAP[i]; !late && span > 0 {
			start = w.ASAP[i] + rng.Int63n(span+1)
		}
		s.Assign[i] = sched.Assignment{Proc: j.Pid, Start: start}
	}
	return s
}

// deriveWithSlack derives net with a deadline slack of slackFrames
// hyperperiods.
func deriveWithSlack(t testing.TB, net *core.Network, slackFrames rational.Rat) (*taskgraph.TaskGraph, error) {
	t.Helper()
	flat, err := taskgraph.Derive(net)
	if err != nil {
		return nil, err
	}
	return taskgraph.DeriveOpts(net, taskgraph.Options{DeadlineSlack: flat.Hyperperiod.Mul(slackFrames)})
}

// stretchDeadlines multiplies every periodic process's relative deadline
// by a factor in [1, 3] drawn from rng, so that placements can run past
// the frame without missing a deadline.
func stretchDeadlines(rng *rand.Rand, net *core.Network) {
	for _, p := range net.Processes() {
		if !p.IsSporadic() {
			p.Gen.Deadline = p.Gen.Deadline.MulInt(1 + rng.Int63n(3))
		}
	}
}

// TestValidatePipelinedMatchesReference holds the tick ValidatePipelined
// to its rational oracle on the registry apps derived with one frame of
// deadline slack, as they are and (up to 1000 jobs) with stretched
// deadlines — placed by
// latePlacement, PipelineSchedule and the portfolio at M 1–4, each with
// shifted and off-grid variants — and on a five-stage chain whose
// pipeline placement spans 2.5 frames.
func TestValidatePipelinedMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(30))
	for _, name := range apps.Names() {
		for _, stretch := range []bool{false, true} {
			net, err := apps.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			if stretch {
				stretchDeadlines(rng, net)
			}
			tg, err := deriveWithSlack(t, net, rational.One)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if stretch && len(tg.Jobs) > 1000 {
				// fms-original's 2,798 jobs: stretched placements pass the
				// base check, and the reference's O(n²·reps) overlap sweep
				// takes seconds per variant.
				continue
			}
			placed := []*sched.Schedule{latePlacement(t, tg, rng, true), latePlacement(t, tg, rng, false)}
			if s, err := sched.PipelineSchedule(tg, len(net.Processes())); err == nil {
				placed = append(placed, s)
			}
			for m := 1; m <= 4; m++ {
				if s, err := sched.Portfolio(tg, m, sched.PortfolioOptions{}); err == nil {
					placed = append(placed, s)
				} else if s, err := sched.ListSchedule(tg, m, sched.ALAPEDF); err == nil {
					placed = append(placed, s) // infeasible: the base check fails alike
				}
			}
			for _, s := range placed {
				for v, c := range pipelinedVariants(t, s, rng) {
					assertPipelinedMatches(t, fmt.Sprintf("%s stretch=%t M=%d %v variant %d", name, stretch, s.M, s.Heuristic, v), c)
				}
			}
		}
	}

	// Five 50 ms stages on a 100 ms period with 300 ms of slack: the ASAP
	// pipeline placement ends at 250 ms, so three shifted repetitions
	// overlap the first.
	chain := core.NewNetwork("chain5")
	prev := ""
	for i := 0; i < 5; i++ {
		name := string(rune('A' + i))
		chain.AddPeriodic(name, rational.Milli(100), rational.Milli(400), rational.Milli(50), nil)
		if prev != "" {
			chain.Connect(prev, name, prev+name, core.FIFO)
			chain.Priority(prev, name)
		}
		prev = name
	}
	tg, err := deriveWithSlack(t, chain, rational.FromInt(3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.PipelineSchedule(tg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mk := s.Makespan(); mk.Less(tg.Hyperperiod.MulInt(2)) {
		t.Fatalf("chain makespan %v is below 2H", mk)
	}
	if err := assertPipelinedMatches(t, "chain5", s); err != nil {
		t.Errorf("chain5: one stage per processor rejected: %v", err)
	}
	for v, c := range pipelinedVariants(t, s, rng) {
		assertPipelinedMatches(t, fmt.Sprintf("chain5 variant %d", v), c)
	}
}

// FuzzValidatePipelinedMatchesReference derives random networks, their
// deadlines stretched, with a seed-chosen deadline slack of 0 to 2
// frames, places them by list scheduling, PipelineSchedule or
// latePlacement, and holds ValidatePipelined to the rational reference on
// the placement and its shifted and off-grid variants. As a plain test it replays a seed corpus sized by
// FPPN_FUZZ_TRIALS.
func FuzzValidatePipelinedMatchesReference(f *testing.F) {
	for seed := 0; seed < trialCount(f, 16); seed++ {
		f.Add(int64(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		net := nettest.Random(rng, nettest.Options{})
		stretchDeadlines(rng, net)
		tg, err := deriveWithSlack(t, net, rational.New(int64(rng.Intn(5)), 2))
		if err != nil {
			t.Skip() // generator produced a non-schedulable corner case
		}
		var s *sched.Schedule
		switch rng.Intn(4) {
		case 0:
			s, err = sched.PipelineSchedule(tg, len(net.Processes()))
		case 1:
			s = latePlacement(t, tg, rng, rng.Intn(2) == 0)
		default:
			s, err = sched.ListSchedule(tg, 1+rng.Intn(3), sched.Heuristics[rng.Intn(len(sched.Heuristics))])
		}
		if err != nil {
			t.Skip() // no placement: an infeasible ASAP pipeline or a stall
		}
		for v, c := range pipelinedVariants(t, s, rng) {
			assertPipelinedMatches(t, fmt.Sprintf("variant %d", v), c)
		}
	})
}

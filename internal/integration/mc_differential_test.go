// Differential harness for the mixed-criticality runtime: mc.Run, which
// sweeps both modes on the LO plan's int64 tick lowering, must reproduce
// the rational reference sweep (mcRunReference) field for field — Gantt
// entries, mode switches and their instants, HI and LO misses, skipped
// server jobs, dropped LO jobs, outputs and makespan — on random networks
// and random specifications, under WCET execution, C_LO overruns up to
// C_HI, execution times between the plan's ticks and sporadic events.
package integration

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/nettest"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/taskgraph"
)

// randomMCSpec makes the longest-period periodic process HI, so the HI
// subnetwork keeps the network's hyperperiod, and every other periodic
// process HI with probability 1/2. A sporadic process can be HI only with
// a HI user. C_HI is C_LO times 1, 3/2 or 2.
func randomMCSpec(rng *rand.Rand, net *core.Network) mc.Spec {
	spec := mc.Spec{Levels: map[string]mc.Level{}, WCETHi: map[string]mc.Time{}}
	var longest *core.Process
	for _, p := range net.Processes() {
		if !p.IsSporadic() && (longest == nil || longest.Period().Less(p.Period())) {
			longest = p
		}
	}
	for _, p := range net.Processes() {
		hi := rng.Intn(2) == 0
		if p.IsSporadic() {
			u, err := net.UserOf(p.Name)
			hi = hi && err == nil && spec.Levels[u.Name] == mc.HI
		} else {
			hi = hi || p == longest
		}
		if hi {
			spec.Levels[p.Name] = mc.HI
			spec.WCETHi[p.Name] = p.WCET.Mul(rational.New(int64(2+rng.Intn(3)), 2))
		}
	}
	return spec
}

// mcExecModel is a pure execution-time model: the reference and mc.Run
// read each instance at different moments, so the value may depend only
// on the job and the frame. With offGrid, jobs run for k/7 of their C_LO,
// between the plan's ticks. With overrun, a HI job overruns C_LO in about
// a third of the frames, by 1/3, 2/3 or all of its C_HI − C_LO margin.
func mcExecModel(spec mc.Spec, seed int64, overrun, offGrid bool) platform.ExecModel {
	return func(j *taskgraph.Job, f int) mc.Time {
		h := mix(seed, int64(j.Index), int64(f))
		c := j.WCET
		if offGrid {
			c = c.Mul(rational.New(int64(1+h%7), 7))
		}
		if chi, ok := spec.WCETHi[j.Proc]; ok && overrun && mix(seed, int64(f))%3 == 0 && h/7%2 == 0 {
			c = j.WCET.Add(chi.Sub(j.WCET).Mul(rational.New(int64(1+h/14%3), 3)))
		}
		return c
	}
}

// mix hashes its arguments (splitmix64 finalizer).
func mix(vals ...int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= uint64(v)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
		h *= 0x94d049bb133111eb
		h ^= h >> 29
	}
	return h
}

// randomMCRun draws a random network with WCETs up to 40 ms, so overruns
// crowd the frame, a random specification mc.Build accepts (up to four
// tries) and a random run configuration. ok is false when Build refused
// every specification.
func randomMCRun(rng *rand.Rand, seed int64) (mcs *mc.Schedule, cfg mc.Config, ok bool) {
	net := nettest.Random(rng, nettest.Options{MaxWCETMs: 40})
	var spec mc.Spec
	for try := 0; try < 4 && mcs == nil; try++ {
		spec = randomMCSpec(rng, net)
		mcs, _ = mc.Build(net, spec, 1+rng.Intn(3))
	}
	if mcs == nil {
		return nil, mc.Config{}, false
	}
	cfg = mc.Config{Frames: 1 + rng.Intn(3), Inputs: nettest.Inputs(net, 64)}
	if rng.Intn(2) == 0 {
		cfg.SporadicEvents = nettest.RandomEvents(rng, net, mcs.Lo.TG.Hyperperiod.MulInt(int64(cfg.Frames)))
	}
	if mode := rng.Intn(4); mode > 0 {
		cfg.Exec = mcExecModel(spec, seed, mode&1 != 0, mode&2 != 0)
	}
	return mcs, cfg, true
}

// assertMCMatchesReference runs mc.Run and the reference on one
// configuration and fails unless both err or both produce equal reports.
// It returns the reference report, nil when the run failed.
func assertMCMatchesReference(t *testing.T, mcs *mc.Schedule, cfg mc.Config) *mc.Report {
	t.Helper()
	want, wantErr := mcRunReference(mcs, cfg)
	got, gotErr := mc.Run(mcs, cfg)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error verdicts diverge: mc.Run %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if diff := diffMCReports(got, want); diff != "" {
		t.Fatalf("mc.Run diverges from the reference: %s", diff)
	}
	return want
}

// diffMCReports describes the first field in which two reports differ, or
// returns "". Times are compared by value: the zero Rat and 0/1 are equal.
func diffMCReports(got, want *mc.Report) string {
	if got.Frames != want.Frames || got.DroppedLO != want.DroppedLO || !got.Makespan.Equal(want.Makespan) {
		return fmt.Sprintf("frames/dropped/makespan %d/%d/%v, reference %d/%d/%v",
			got.Frames, got.DroppedLO, got.Makespan, want.Frames, want.DroppedLO, want.Makespan)
	}
	if len(got.Entries) != len(want.Entries) {
		return fmt.Sprintf("%d Gantt entries, reference %d", len(got.Entries), len(want.Entries))
	}
	for k, g := range got.Entries {
		w := want.Entries[k]
		if g.Proc != w.Proc || g.Label != w.Label || !g.Start.Equal(w.Start) || !g.End.Equal(w.End) {
			return fmt.Sprintf("Gantt entry %d = %+v, reference %+v", k, g, w)
		}
	}
	if len(got.Switches) != len(want.Switches) {
		return fmt.Sprintf("%d mode switches, reference %d", len(got.Switches), len(want.Switches))
	}
	for k, g := range got.Switches {
		w := want.Switches[k]
		if g.Frame != w.Frame || !g.At.Equal(w.At) || g.Culprit != w.Culprit {
			return fmt.Sprintf("switch %d = frame %d at %v by %s, reference frame %d at %v by %s",
				k, g.Frame, g.At, g.Culprit.Name(), w.Frame, w.At, w.Culprit.Name())
		}
	}
	for _, ms := range []struct {
		name      string
		got, want []plan.Miss
	}{{"HI", got.HiMisses, want.HiMisses}, {"LO", got.LoMisses, want.LoMisses}} {
		if len(ms.got) != len(ms.want) {
			return fmt.Sprintf("%d %s misses, reference %d", len(ms.got), ms.name, len(ms.want))
		}
		for k, g := range ms.got {
			w := ms.want[k]
			if g.Job != w.Job || g.Frame != w.Frame || !g.Finish.Equal(w.Finish) || !g.Deadline.Equal(w.Deadline) {
				return fmt.Sprintf("%s miss %d = %v, reference %v", ms.name, k, g, w)
			}
		}
	}
	if !reflect.DeepEqual(got.Skipped, want.Skipped) {
		return fmt.Sprintf("skipped %v, reference %v", got.Skipped, want.Skipped)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		return "outputs: " + core.DiffSamples(want.Outputs, got.Outputs)
	}
	return ""
}

// TestMCMatchesReference runs mc.Run against the reference on random
// networks and specifications, and on runs whose budgets fail.
func TestMCMatchesReference(t *testing.T) {
	t.Parallel()
	trials := trialCount(t, 60)
	accepted, switched := 0, 0
	for trial := 0; trial < trials; trial++ {
		seed := int64(7000 + trial)
		mcs, cfg, ok := randomMCRun(rand.New(rand.NewSource(seed)), seed)
		if !ok {
			continue
		}
		accepted++
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			if rep := assertMCMatchesReference(t, mcs, cfg); rep != nil && len(rep.Switches) > 0 {
				switched++
			}
		})
	}
	// A generator change that Build rejects wholesale, or that never
	// overruns, must not pass with nothing tested.
	if min := trials / 3; accepted < min || switched < min/3 {
		t.Fatalf("%d of %d random specifications built and %d runs switched modes, want at least %d and %d",
			accepted, trials, switched, min, min/3)
	}

	// Overload: a full C_HI overrun misses hi's deadline and carries
	// into the next frame, where lo misses too. The random runs above
	// leave enough slack that they never miss.
	mcs := twoLevel(t)
	overload := mc.Config{Frames: 2, Exec: onlyIn(0, "hi", rational.Milli(60))}
	if rep := assertMCMatchesReference(t, mcs, overload); rep == nil || len(rep.HiMisses) == 0 || len(rep.LoMisses) == 0 {
		t.Fatal("overload run missed no HI and LO deadlines")
	}

	// Refused runs: both engines must fail, with the same message when
	// one job is at fault.
	for name, cfg := range map[string]mc.Config{
		"zero frames":    {Frames: 0},
		"negative":       {Frames: 2, Exec: onlyIn(1, "hi", rational.Milli(-1))},
		"beyond C_HI":    {Frames: 2, Exec: onlyIn(1, "hi", rational.Milli(61))},
		"beyond LO WCET": {Frames: 2, Exec: onlyIn(1, "lo", rational.Milli(51))},
		"bad events":     {Frames: 2, SporadicEvents: map[string][]mc.Time{"ghost": {rational.Zero}}},
	} {
		_, wantErr := mcRunReference(mcs, cfg)
		_, gotErr := mc.Run(mcs, cfg)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: mc.Run %v, reference %v; want the same error", name, gotErr, wantErr)
		}
	}
}

// twoLevel builds a HI and a LO process of 100 ms on one processor: lo
// (C = 50 ms, D = 55 ms) runs first and hi (C_LO = 10 ms, C_HI = 60 ms)
// behind it.
func twoLevel(t *testing.T) *mc.Schedule {
	t.Helper()
	net := core.NewNetwork("two-level")
	net.AddPeriodic("hi", rational.Milli(100), rational.Milli(100), rational.Milli(10), nil)
	net.AddPeriodic("lo", rational.Milli(100), rational.Milli(55), rational.Milli(50), nil)
	mcs, err := mc.Build(net, mc.Spec{
		Levels: map[string]mc.Level{"hi": mc.HI},
		WCETHi: map[string]mc.Time{"hi": rational.Milli(60)},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return mcs
}

// onlyIn runs proc's jobs of the given frame for c and every other job for
// its WCET.
func onlyIn(frame int, proc string, c mc.Time) platform.ExecModel {
	return func(j *taskgraph.Job, f int) mc.Time {
		if j.Proc == proc && f == frame {
			return c
		}
		return j.WCET
	}
}

// TestMCRunRejectsTimingOffTicks runs execution times whose denominators
// share no int64 timescale with the plan: mc.Run must return the lowering's
// error, not panic or wrap around.
func TestMCRunRejectsTimingOffTicks(t *testing.T) {
	t.Parallel()
	_, err := mc.Run(twoLevel(t), mc.Config{Frames: 2, Exec: func(j *taskgraph.Job, f int) mc.Time {
		if j.Proc == "hi" {
			return rational.New(1, 1_000_000_007)
		}
		return rational.New(1, 999_999_937)
	}})
	if err == nil || !strings.Contains(err.Error(), "ticks") {
		t.Fatalf("mc.Run = %v, want the tick-range error", err)
	}
}

// FuzzMCMatchesReference explores the mc.Run/reference pair with arbitrary
// seeds. As a plain test it replays a seed corpus sized by
// FPPN_FUZZ_TRIALS.
func FuzzMCMatchesReference(f *testing.F) {
	for seed := 0; seed < trialCount(f, 16); seed++ {
		f.Add(int64(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		mcs, cfg, ok := randomMCRun(rand.New(rand.NewSource(seed)), seed)
		if !ok {
			t.Skip() // no specification Build accepts for this network
		}
		assertMCMatchesReference(t, mcs, cfg)
	})
}

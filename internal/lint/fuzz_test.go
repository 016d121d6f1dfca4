package lint

import (
	"errors"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/hb"
	"repro/internal/nettest"
	"repro/internal/plan"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// trialCount returns the number of randomized trials: FPPN_FUZZ_TRIALS if
// set, else def — the same knob the integration suite honours.
func trialCount(t *testing.T, def int) int {
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

// mutate applies one deterministic corruption to a well-formed random
// network, chosen by sel, so the fuzzer reaches the error rules too. sel 0
// leaves the network intact.
func mutate(net *core.Network, sel byte) {
	procs := net.Processes()
	if len(procs) == 0 {
		return
	}
	first := procs[0].Name
	last := procs[len(procs)-1].Name
	switch sel % 6 {
	case 1: // FPPN005: zero out a WCET.
		net.Process(first).WCET = rational.Zero
	case 2: // FPPN002: close an FP cycle over the whole process set.
		net.PriorityChain(last, first)
	case 3: // FPPN003: an FP-uncovered channel between strangers.
		net.AddPeriodic("zz_a", rational.Milli(100), rational.Milli(100), rational.Milli(1), core.NopBehavior)
		net.AddPeriodic("zz_b", rational.Milli(100), rational.Milli(100), rational.Milli(1), core.NopBehavior)
		net.Connect("zz_a", "zz_b", "zz_uncovered", core.FIFO)
	case 4: // FPPN004: a sporadic process with no user.
		net.AddSporadic("zz_loner", 1, rational.Milli(400), rational.Milli(400), rational.Milli(1), core.NopBehavior)
	case 5: // FPPN001: a duplicate process name.
		net.AddPeriodic(first, rational.Milli(100), rational.Milli(100), rational.Milli(1), core.NopBehavior)
	}
}

// overFrameLimit reports whether one frame of net's PN' holds more than
// taskgraph.MaxFrameJobs jobs, the frames taskgraph.Derive rejects and
// FPPN012 reports as an error.
func overFrameLimit(net *core.Network) bool {
	tm, err := taskgraph.LowerTiming(net, rational.Zero)
	return err == nil && tm.Jobs > taskgraph.MaxFrameJobs
}

// assertLintContract runs lint on net and checks that it returns a report
// that encodes, with error findings exactly when ValidateSchedulable
// rejects the network, its timing does not fit the integer timescale
// (FPPN021) or its frame is beyond the derivation's limit (FPPN012).
func assertLintContract(t *testing.T, net *core.Network, m int) {
	t.Helper()
	rep := Run(net, Options{Processors: m})
	if rep == nil {
		t.Fatal("Run returned nil")
	}
	want := net.ValidateSchedulable()
	if want == nil {
		var te *taskgraph.TimescaleError
		if _, err := taskgraph.LowerTiming(net, rational.Zero); errors.As(err, &te) {
			want = err
		} else if overFrameLimit(net) {
			want = errors.New("frame beyond taskgraph.MaxFrameJobs")
		}
	}
	if rep.HasErrors() != (want != nil) {
		t.Fatalf("%s: HasErrors=%v disagrees with validation and timescale error %v", net.Name, rep.HasErrors(), want)
	}
	if _, err := rep.JSON(); err != nil {
		t.Fatalf("JSON: %v", err)
	}
}

// FuzzLintNeverPanics drives lint.Run over generated networks — random
// ones, pristine and deliberately corrupted, and, when timing is not
// empty, the extreme-timing network it encodes (see nettest.TimingNet) —
// and checks that it never panics and keeps its contract (assertLintContract).
// The corpus seeds nettest.ExtremeTiming's networks and the overflow cases
// of FPPN008, FPPN006, FPPN012 and the server period.
func FuzzLintNeverPanics(f *testing.F) {
	f.Add(int64(1), byte(0), 2, []byte(nil))
	f.Add(int64(2), byte(1), 1, []byte(nil))
	f.Add(int64(3), byte(2), 4, []byte(nil))
	f.Add(int64(42), byte(3), 2, []byte(nil))
	f.Add(int64(7), byte(4), 3, []byte(nil))
	f.Add(int64(99), byte(5), 2, []byte(nil))
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, byte(0), 2, nettest.ExtremeTiming(rand.New(rand.NewSource(seed))))
	}
	periodic := func(burst int, num, den int64) nettest.TimedProc {
		return nettest.TimedProc{Burst: burst, Times: [6]int64{num, den, num, den, num, 4 * den}}
	}
	// A user u with period T_u and WCET T_u/4 serving a sporadic process
	// with deadline d: FPPN006 (TestServerDeadlineOverflow), the server
	// period (TestDeriveServerPeriodOverflow) and, with T_u =
	// 366503875925 s, FPPN008 (TestUtilizationOverflow).
	server := func(tuNum, tuDen, dNum, dDen, wcetDen int64) []byte {
		return nettest.EncodeTiming(periodic(1, tuNum, tuDen),
			nettest.TimedProc{Sporadic: true, Burst: 1, Times: [6]int64{tuNum, tuDen, dNum, dDen, tuNum, wcetDen}})
	}
	for _, spec := range [][]byte{
		server(366503875925, 1, 1<<40, 1<<24+1, 4),
		server(2, 5, 3, 10, 20),
		server(1<<40, 3, 1<<40, 1<<24+1, 12),
		server(1<<40, 1, 1, 1<<40, 4),
		// TestHyperperiodOverflow: lcm, jobs, ratio.
		nettest.EncodeTiming(periodic(1, 1<<31-1, 1), periodic(1, 1<<31, 1), periodic(1, 1<<31+1, 1)),
		nettest.EncodeTiming(periodic(1, 1<<31, 1), periodic(2, 1, 1<<31)),
		nettest.EncodeTiming(periodic(1, 1<<40, 3), periodic(1, 1<<40, 1<<24+1)),
	} {
		f.Add(int64(0), byte(0), 2, spec)
	}
	f.Fuzz(func(t *testing.T, seed int64, sel byte, m int, timing []byte) {
		var net *core.Network
		if len(timing) == 0 {
			net = nettest.Random(rand.New(rand.NewSource(seed)), nettest.Options{})
		} else {
			net = nettest.TimingNet(timing)
		}
		mutate(net, sel)
		assertLintContract(t, net, m)
	})
}

// servedArtifacts builds the artifacts /analyze hands to Check: the task
// graph, a plan scheduled with heuristic h (or the portfolio when h is out
// of range) on m processors, the feas report and the plan's hb verdict.
// ok is false when the network does not derive or the pipeline fails.
func servedArtifacts(net *core.Network, m, h int) (art Artifacts, ok bool) {
	tg, err := taskgraph.Derive(net)
	if err != nil {
		return Artifacts{}, false
	}
	var s *sched.Schedule
	if h < len(sched.Heuristics) {
		s, err = sched.ListSchedule(tg, m, sched.Heuristics[h])
	} else {
		s, err = sched.Portfolio(tg, m, sched.PortfolioOptions{})
	}
	if err != nil {
		return Artifacts{}, false
	}
	p, err := plan.Compile(s)
	if err != nil {
		return Artifacts{}, false
	}
	art.TG = tg
	art.Feas, _ = feas.Analyze(tg, m, feas.Options{})
	v := hb.Verify(p)
	art.HB = &v
	return art, true
}

// FuzzLintCheckMatchesRun builds the artifacts the way /analyze does on
// random networks that derive, and requires Check's report to equal
// Run's byte for byte: the artifacts change what lint computes, never
// what it finds.
func FuzzLintCheckMatchesRun(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, byte(seed), byte(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, mSel, hSel byte) {
		net := nettest.Random(rand.New(rand.NewSource(seed)), nettest.Options{})
		m := 1 + int(mSel%4)
		art, ok := servedArtifacts(net, m, int(hSel)%(len(sched.Heuristics)+1))
		if !ok {
			t.Skip("network does not derive or schedule")
		}
		want, err := Run(net, Options{Processors: m}).JSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Check(net, art, Options{Processors: m}).JSON()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s on %d processors: Check with artifacts differs from Run:\n%s\n---\n%s", net.Name, m, got, want)
		}
	})
}

// TestLintNeverPanicsExtremeTiming runs FuzzLintNeverPanics's contract on
// nettest.ExtremeTiming networks, one per trial.
func TestLintNeverPanicsExtremeTiming(t *testing.T) {
	for i := 0; i < trialCount(t, 200); i++ {
		spec := nettest.ExtremeTiming(rand.New(rand.NewSource(int64(i))))
		for m := 1; m <= 4; m *= 2 {
			assertLintContract(t, nettest.TimingNet(spec), m)
		}
	}
}

// TestCleanImpliesDerivable is the cross-check property: any network with
// zero error-severity findings passes ValidateSchedulable and derives a
// task graph successfully.
func TestCleanImpliesDerivable(t *testing.T) {
	trials := trialCount(t, 40)
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		net := nettest.Random(rng, nettest.Options{})
		rep := Run(net, Options{})
		if rep.HasErrors() {
			t.Fatalf("trial %d: random net %q has error findings: %v", i, net.Name, rep.Errors())
		}
		if err := net.ValidateSchedulable(); err != nil {
			t.Fatalf("trial %d: zero error findings but ValidateSchedulable: %v", i, err)
		}
		if _, err := taskgraph.Derive(net); err != nil {
			t.Fatalf("trial %d: zero error findings but Derive: %v", i, err)
		}
	}
}

// TestMutationsCaught pins each mutation to the diagnostic code it is
// meant to trigger.
func TestMutationsCaught(t *testing.T) {
	wants := map[byte]string{
		1: CodeWCET, 2: CodeFPCycle, 3: CodeFPCoverage, 4: CodeSporadicUser, 5: CodeBuilder,
	}
	for sel, want := range wants {
		net := nettest.Random(rand.New(rand.NewSource(11)), nettest.Options{})
		mutate(net, sel)
		rep := Run(net, Options{})
		found := false
		for _, f := range rep.Errors() {
			if f.Code == want {
				found = true
			}
		}
		if !found {
			t.Errorf("mutation %d: expected %s among errors, got %v", sel, want, rep.Errors())
		}
	}
}

package taskgraph

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/apps/fms"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/rational"
)

func ms(n int64) Time { return rational.Milli(n) }

func deriveFig3(t *testing.T) *TaskGraph {
	t.Helper()
	tg, err := Derive(signal.New())
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// TestFig3JobSet reproduces Fig. 3 of the paper: the task graph of the
// Fig. 1 network over one hyperperiod H = 200 ms with C_i = 25 ms, exactly
// ten jobs with the (A_i, D_i, C_i) tuples printed in the figure.
func TestFig3JobSet(t *testing.T) {
	tg := deriveFig3(t)
	if !tg.Hyperperiod.Equal(ms(200)) {
		t.Errorf("H = %v, want 200ms", tg.Hyperperiod)
	}
	want := map[string][3]Time{ // name -> (A, D, C)
		"InputA[1]":  {ms(0), ms(200), ms(25)},
		"FilterA[1]": {ms(0), ms(100), ms(25)},
		"FilterA[2]": {ms(100), ms(200), ms(25)},
		"FilterB[1]": {ms(0), ms(200), ms(25)},
		"NormA[1]":   {ms(0), ms(200), ms(25)},
		"OutputA[1]": {ms(0), ms(200), ms(25)},
		"OutputB[1]": {ms(0), ms(100), ms(25)},
		"OutputB[2]": {ms(100), ms(200), ms(25)},
		"CoefB[1]":   {ms(0), ms(200), ms(25)}, // D = min(H, 0+700−200)
		"CoefB[2]":   {ms(0), ms(200), ms(25)},
	}
	if len(tg.Jobs) != len(want) {
		t.Fatalf("%d jobs, want %d:\n%v", len(tg.Jobs), len(want), tg.Jobs)
	}
	for _, j := range tg.Jobs {
		w, ok := want[j.Name()]
		if !ok {
			t.Errorf("unexpected job %s", j.Name())
			continue
		}
		if !j.Arrival.Equal(w[0]) || !j.Deadline.Equal(w[1]) || !j.WCET.Equal(w[2]) {
			t.Errorf("%s = (%v,%v,%v), want (%v,%v,%v)",
				j.Name(), j.Arrival, j.Deadline, j.WCET, w[0], w[1], w[2])
		}
	}
}

// TestFig3RedundantEdge checks the paper's explicit observation: "InputA has
// priority over FilterA and NormA, and hence it is joined to both of them.
// However, in the latter case the edge is redundant due to a path from
// InputA to NormA."
func TestFig3RedundantEdge(t *testing.T) {
	full, err := DeriveOpts(signal.New(), Options{KeepRedundantEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	reduced := deriveFig3(t)

	inputA := full.Job("InputA", 1).Index
	normA := full.Job("NormA", 1).Index
	if !full.HasEdge(inputA, normA) {
		t.Error("pre-reduction graph lacks the InputA[1] -> NormA[1] edge")
	}
	if reduced.HasEdge(inputA, normA) {
		t.Error("transitive reduction kept the redundant InputA[1] -> NormA[1] edge")
	}
	if !reduced.HasPath(inputA, normA) {
		t.Error("reduction destroyed the InputA[1] ~> NormA[1] path")
	}
}

func TestFig3Edges(t *testing.T) {
	tg := deriveFig3(t)
	edge := func(ap string, ak int64, bp string, bk int64) bool {
		return tg.HasEdge(tg.Job(ap, ak).Index, tg.Job(bp, bk).Index)
	}
	checks := []struct {
		ap   string
		ak   int64
		bp   string
		bk   int64
		want bool
	}{
		{"InputA", 1, "FilterA", 1, true},
		{"InputA", 1, "FilterB", 1, true},
		{"CoefB", 1, "CoefB", 2, true},    // same-process chain
		{"CoefB", 2, "FilterB", 1, true},  // server subset precedes its user job
		{"CoefB", 1, "FilterB", 1, false}, // transitively implied
		{"FilterA", 1, "NormA", 1, true},
		{"NormA", 1, "OutputA", 1, true},
		{"NormA", 1, "FilterA", 2, true}, // feedback channel relation
		{"FilterB", 1, "OutputB", 1, true},
		{"OutputB", 1, "OutputB", 2, true},
		{"FilterA", 1, "FilterA", 2, false}, // implied via NormA[1]
		{"OutputA", 1, "OutputB", 1, false}, // unrelated processes
	}
	for _, c := range checks {
		if got := edge(c.ap, c.ak, c.bp, c.bk); got != c.want {
			t.Errorf("edge %s[%d] -> %s[%d] = %v, want %v", c.ap, c.ak, c.bp, c.bk, got, c.want)
		}
	}
	if got := tg.EdgeCount(); got != 9 {
		t.Errorf("reduced edge count = %d, want 9\nedges: %v", got, tg.Edges())
	}
}

func TestFig3ServerMetadata(t *testing.T) {
	tg := deriveFig3(t)
	if got := tg.ServerPeriod["CoefB"]; !got.Equal(ms(200)) {
		t.Errorf("CoefB server period = %v, want 200ms (user FilterB's period)", got)
	}
	if tg.User["CoefB"] != "FilterB" {
		t.Errorf("CoefB user = %q, want FilterB", tg.User["CoefB"])
	}
	if !tg.IncludeRight["CoefB"] {
		t.Error("CoefB -> FilterB priority should give a right-closed window (a, b]")
	}
	j1, j2 := tg.Job("CoefB", 1), tg.Job("CoefB", 2)
	if !j1.Server || !j2.Server {
		t.Error("CoefB jobs not marked as server jobs")
	}
	if j1.Subset != 1 || j2.Subset != 1 || j1.SlotInSubset != 1 || j2.SlotInSubset != 2 {
		t.Errorf("subset metadata = (%d,%d) (%d,%d), want (1,1) (1,2)",
			j1.Subset, j1.SlotInSubset, j2.Subset, j2.SlotInSubset)
	}
	if tg.Job("InputA", 1).Server {
		t.Error("periodic job marked as server")
	}
}

// TestFig3ASAPALAPLoad pins down the analysis values computed by hand for
// the Fig. 3 graph: Load = 3/2, so ⌈Load⌉ = 2 processors are necessary,
// consistent with the two-processor schedule of Fig. 4.
func TestFig3ASAPALAPLoad(t *testing.T) {
	tg := deriveFig3(t)
	w, err := tg.Windows()
	if err != nil {
		t.Fatal(err)
	}
	wantASAP := map[string]Time{
		"InputA[1]": ms(0), "CoefB[1]": ms(0), "CoefB[2]": ms(25),
		"FilterA[1]": ms(25), "FilterB[1]": ms(50), "NormA[1]": ms(50),
		"OutputB[1]": ms(75), "OutputA[1]": ms(75),
		"FilterA[2]": ms(100), "OutputB[2]": ms(100),
	}
	wantALAP := map[string]Time{
		"InputA[1]": ms(50), "CoefB[1]": ms(25), "CoefB[2]": ms(50),
		"FilterA[1]": ms(100), "FilterB[1]": ms(75), "NormA[1]": ms(175),
		"OutputB[1]": ms(100), "OutputA[1]": ms(200),
		"FilterA[2]": ms(200), "OutputB[2]": ms(200),
	}
	for i, j := range tg.Jobs {
		if got, want := w.Scale.FromTicks(w.ASAP[i]), wantASAP[j.Name()]; !got.Equal(want) {
			t.Errorf("ASAP(%s) = %v, want %v", j.Name(), got, want)
		}
		if got, want := w.Scale.FromTicks(w.ALAP[i]), wantALAP[j.Name()]; !got.Equal(want) {
			t.Errorf("ALAP(%s) = %v, want %v", j.Name(), got, want)
		}
	}
	if load, err := tg.Load(); err != nil || !load.Equal(rational.New(3, 2)) {
		t.Errorf("Load = %v, %v, want 3/2", load, err)
	}
	// The witness attains the load: 75 ms of work in [0, 50 ms].
	if c := w.Load(); !c.Start.IsZero() || !c.End.Equal(ms(50)) || !c.Demand.Equal(ms(75)) {
		t.Errorf("densest window = %+v, want [0, 1/20] holding 3/40", c)
	}
	if err := tg.CheckSchedulable(2); err != nil {
		t.Errorf("CheckSchedulable(2) = %v, want nil", err)
	}
	if err := tg.CheckSchedulable(1); err == nil {
		t.Error("CheckSchedulable(1) passed; load 1.5 needs 2 processors")
	}
}

func TestCheckSchedulableWindowViolation(t *testing.T) {
	// A chain of two 60 ms jobs into a 100 ms deadline cannot fit.
	n := core.NewNetwork("tight")
	n.AddPeriodic("a", ms(100), ms(100), ms(60), nil)
	n.AddPeriodic("b", ms(100), ms(100), ms(60), nil)
	n.Connect("a", "b", "c", core.FIFO)
	n.Priority("a", "b")
	tg, err := Derive(n)
	if err != nil {
		t.Fatal(err)
	}
	err = tg.CheckSchedulable(4)
	if err == nil || !strings.Contains(err.Error(), "cannot fit its window") {
		t.Errorf("CheckSchedulable = %v, want window violation", err)
	}
	if err := tg.CheckSchedulable(0); err == nil {
		t.Error("zero processors accepted")
	}
}

func TestLoadEqualsUtilizationWithoutPrecedence(t *testing.T) {
	// Two independent processes, no channels: Load reduces to the classic
	// utilization-style density max over windows.
	n := core.NewNetwork("independent")
	n.AddPeriodic("a", ms(100), ms(100), ms(30), nil)
	n.AddPeriodic("b", ms(100), ms(100), ms(50), nil)
	tg, err := Derive(n)
	if err != nil {
		t.Fatal(err)
	}
	if load, err := tg.Load(); err != nil || !load.Equal(rational.New(8, 10)) {
		t.Errorf("Load = %v, %v, want 4/5", load, err)
	}
}

// TestDemandTwoHeavyProcesses pins the nominal processor-demand bound:
// two processes with WCET equal to their shared deadline can never share
// one processor, and the [0, 100 ms] window proves it.
func TestDemandTwoHeavyProcesses(t *testing.T) {
	n := core.NewNetwork("heavy")
	n.AddPeriodic("h1", ms(100), ms(100), ms(100), nil)
	n.AddPeriodic("h2", ms(100), ms(100), ms(100), nil)
	tg, err := Derive(n)
	if err != nil {
		t.Fatal(err)
	}
	jt, err := tg.Ticks()
	if err != nil {
		t.Fatal(err)
	}
	w := jt.Demand()
	if w.Processors() != 2 || !w.Density.Equal(rational.FromInt(2)) {
		t.Fatalf("demand bound = %d (density %v), want 2", w.Processors(), w.Density)
	}
	if !w.Start.IsZero() || !w.End.Equal(ms(100)) || !w.Demand.Equal(ms(200)) {
		t.Fatalf("witness = %+v, want [0, 1/10] holding 1/5", w)
	}
}

// TestWindowMetricsRejectUnfitTiming checks that a hand-built graph whose
// timing does not fit the integer timescale fails every window metric
// with its *TimescaleError instead of computing in rationals.
func TestWindowMetricsRejectUnfitTiming(t *testing.T) {
	huge := rational.New(1, 1<<40+1)
	tg := &TaskGraph{
		Hyperperiod: rational.One,
		Jobs:        []*Job{{Proc: "a", K: 1, Arrival: rational.Zero, Deadline: rational.One, WCET: huge}},
		Succ:        [][]int{nil}, Pred: [][]int{nil},
	}
	var te *TimescaleError
	if _, err := tg.Load(); !errors.As(err, &te) {
		t.Errorf("Load error = %v, want *TimescaleError", err)
	}
	if err := tg.CheckSchedulable(1); !errors.As(err, &te) {
		t.Errorf("CheckSchedulable error = %v, want *TimescaleError", err)
	}
	if !strings.Contains(tg.Summary(), "load=?") {
		t.Errorf("Summary = %q, want load=?", tg.Summary())
	}
}

func TestFractionalServerPeriod(t *testing.T) {
	// Sporadic deadline 50 ms < user period 200 ms: the plain correction
	// d' = d − T_u would be negative, so the derivation must use a server
	// period T' = T_u/q < d (footnote 3). q = ⌊200/50⌋+1 = 5, T' = 40 ms.
	n := core.NewNetwork("frac")
	n.AddPeriodic("u", ms(200), ms(200), ms(10), nil)
	n.AddSporadic("s", 1, ms(200), ms(50), ms(5), nil)
	n.Connect("s", "u", "cfg", core.Blackboard)
	n.Priority("s", "u")
	tg, err := Derive(n)
	if err != nil {
		t.Fatal(err)
	}
	if got := tg.ServerPeriod["s"]; !got.Equal(ms(40)) {
		t.Fatalf("server period = %v, want 40ms", got)
	}
	// H = lcm(200, 40) = 200 ms -> 5 server jobs, deadlines A + 50 − 40.
	var serverJobs []*Job
	for _, j := range tg.Jobs {
		if j.Proc == "s" {
			serverJobs = append(serverJobs, j)
		}
	}
	if len(serverJobs) != 5 {
		t.Fatalf("%d server jobs, want 5", len(serverJobs))
	}
	for i, j := range serverJobs {
		wantA := ms(int64(i) * 40)
		wantD := wantA.Add(ms(10))
		if !j.Arrival.Equal(wantA) || !j.Deadline.Equal(wantD) {
			t.Errorf("server job %d = (%v, %v), want (%v, %v)", i+1, j.Arrival, j.Deadline, wantA, wantD)
		}
		if j.Subset != i+1 || j.SlotInSubset != 1 {
			t.Errorf("server job %d subset = (%d, %d), want (%d, 1)", i+1, j.Subset, j.SlotInSubset, i+1)
		}
	}
}

func TestLowerPrioritySporadicWindow(t *testing.T) {
	// FMS style: the sporadic configurator has LESS functional priority
	// than its user, so its boundary window is left-closed [a, b).
	n := core.NewNetwork("fms-style")
	n.AddPeriodic("u", ms(200), ms(200), ms(10), nil)
	n.AddSporadic("s", 2, ms(200), ms(400), ms(5), nil)
	n.Connect("s", "u", "cfg", core.Blackboard)
	n.Priority("u", "s") // user over sporadic
	tg, err := Derive(n)
	if err != nil {
		t.Fatal(err)
	}
	if tg.IncludeRight["s"] {
		t.Error("u -> s priority must give a left-closed window [a, b)")
	}
	// The server still precedes the user job in <_J (FP' reverses the
	// relation for the imaginary server process).
	s1, u1 := tg.Job("s", 1), tg.Job("u", 1)
	if s1.Index > u1.Index {
		t.Error("server job does not precede user job in <_J")
	}
	if !tg.HasPath(tg.Job("s", 2).Index, u1.Index) {
		t.Error("no precedence path from last server job to user job")
	}
}

func TestDeriveRejectsUnschedulableSubclass(t *testing.T) {
	n := core.NewNetwork("orphan")
	n.AddSporadic("s", 1, ms(100), ms(100), ms(1), nil)
	if _, err := Derive(n); err == nil {
		t.Error("Derive accepted sporadic process without user")
	}
}

func TestJobLookupAndFormatting(t *testing.T) {
	tg := deriveFig3(t)
	if tg.Job("InputA", 1) == nil || tg.Job("InputA", 2) != nil || tg.Job("ghost", 1) != nil {
		t.Error("Job lookup misbehaves")
	}
	j := tg.Job("FilterA", 2)
	if got := j.String(); got != "FilterA[2] (100,200,25)" {
		t.Errorf("Job.String = %q", got)
	}
	if !strings.Contains(tg.Summary(), "10 jobs") {
		t.Errorf("Summary = %q", tg.Summary())
	}
	dot := tg.DOT()
	for _, want := range []string{"digraph", "InputA[1]", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestEdgesSortedAndConsistent(t *testing.T) {
	tg := deriveFig3(t)
	edges := tg.Edges()
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Fatal("Edges not sorted")
		}
	}
	// Pred must be the inverse of Succ.
	for v, succ := range tg.Succ {
		for _, u := range succ {
			found := false
			for _, p := range tg.Pred[u] {
				if p == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing from Pred", v, u)
			}
		}
	}
}

// closure computes reachability of a forward-edge DAG as a set of pairs.
func closure(succ [][]int) map[[2]int]bool {
	n := len(succ)
	reach := make(map[[2]int]bool)
	for v := n - 1; v >= 0; v-- {
		for _, u := range succ[v] {
			reach[[2]int{v, u}] = true
			for w := u; w < n; w++ {
				if reach[[2]int{u, w}] {
					reach[[2]int{v, w}] = true
				}
			}
		}
	}
	return reach
}

// TestTransitiveReductionProperty: on random forward DAGs the reduction
// preserves the transitive closure and keeps no removable edge. Each job
// is its own chain, which any DAG trivially satisfies, so the minimum-reach
// rows are full reachability; both row layouts run.
func TestTransitiveReductionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(18)
		succ := make([][]int, n)
		ownChain := make([]int32, n)
		for v := 0; v < n; v++ {
			ownChain[v] = int32(v)
			for u := v + 1; u < n; u++ {
				if rng.Intn(3) == 0 {
					succ[v] = append(succ[v], u)
				}
			}
		}
		reduced := reduceChains(succ, ownChain, n, trial%2 == 0)
		if len(closure(succ)) != len(closure(reduced)) {
			t.Fatalf("trial %d: reduction changed the closure", trial)
		}
		// Minimality: removing any kept edge must shrink the closure.
		before := closure(reduced)
		for v := range reduced {
			for i := range reduced[v] {
				mutated := make([][]int, n)
				for w := range reduced {
					mutated[w] = append([]int(nil), reduced[w]...)
				}
				mutated[v] = append(append([]int(nil), reduced[v][:i]...), reduced[v][i+1:]...)
				if len(closure(mutated)) == len(before) {
					t.Fatalf("trial %d: edge %d->%d is redundant after reduction", trial, v, reduced[v][i])
				}
			}
		}
	}
}

// TestDeriveMemoryLinear guards the derivation against memory that grows
// quadratically in the jobs: fms-original has 3.45× the jobs of fms over
// the same 12 processes, and a second Derive of it may allocate at most 4×
// the bytes of fms's. The n²-bit reachability sets of a bitset reduction
// put the ratio above 5.
func TestDeriveMemoryLinear(t *testing.T) {
	allocated := func(net *core.Network) (jobs int, bytes uint64) {
		if _, err := Derive(net); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tg, err := Derive(net)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return len(tg.Jobs), after.TotalAlloc - before.TotalAlloc
	}
	nSmall, bSmall := allocated(fms.New())
	nBig, bBig := allocated(fms.NewConfig(fms.Original()))
	ratio := float64(bBig) / float64(bSmall)
	t.Logf("fms %d jobs %d B, fms-original %d jobs %d B: job ratio %.2f, byte ratio %.2f",
		nSmall, bSmall, nBig, bBig, float64(nBig)/float64(nSmall), ratio)
	if ratio > 4 {
		t.Errorf("fms-original's derivation allocates %.2f× fms's bytes for %.2f× the jobs, above 4×",
			ratio, float64(nBig)/float64(nSmall))
	}
}

// TestDeriveDeterministic: deriving twice yields identical graphs.
func TestDeriveDeterministic(t *testing.T) {
	a := deriveFig3(t)
	b := deriveFig3(t)
	if len(a.Jobs) != len(b.Jobs) || a.EdgeCount() != b.EdgeCount() {
		t.Fatal("derivation is not deterministic")
	}
	for i := range a.Jobs {
		if a.Jobs[i].Name() != b.Jobs[i].Name() || !a.Jobs[i].Arrival.Equal(b.Jobs[i].Arrival) {
			t.Fatalf("job %d differs between derivations", i)
		}
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs between derivations", i)
		}
	}
}

func TestCandidateEdgeCountReported(t *testing.T) {
	tg := deriveFig3(t)
	if tg.CandidateEdgeCount < tg.EdgeCount() {
		t.Errorf("candidate edges (%d) fewer than reduced edges (%d)",
			tg.CandidateEdgeCount, tg.EdgeCount())
	}
}

func TestFrameJobCountMatchesDerivation(t *testing.T) {
	t.Parallel()
	// The job count that the frame-size limit checks must equal the real
	// one, because it is computed from the same H and substituted periods
	// the simulation uses.
	for _, net := range []*core.Network{signal.New()} {
		tg, err := Derive(net)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := LowerTiming(net, rational.Zero)
		if err != nil {
			t.Fatal(err)
		}
		if tm.Jobs != len(tg.Jobs) {
			t.Errorf("%s: LowerTiming counts %d jobs, derivation has %d", net.Name, tm.Jobs, len(tg.Jobs))
		}
		if !tm.Hyperperiod.Equal(tg.Hyperperiod) {
			t.Errorf("%s: LowerTiming H = %v, derivation H = %v", net.Name, tm.Hyperperiod, tg.Hyperperiod)
		}
	}
}

func TestEdgesOfHandBuiltGraph(t *testing.T) {
	t.Parallel()
	// A hand-assembled graph has no memoized edge list; Edges must build
	// it from Succ on first use.
	tg := &TaskGraph{
		Jobs: []*Job{{Index: 0}, {Index: 1}, {Index: 2}},
		Succ: [][]int{{1, 2}, {2}, {}},
		Pred: [][]int{{}, {0}, {0, 1}},
	}
	if want := [][2]int{{0, 1}, {0, 2}, {1, 2}}; !reflect.DeepEqual(tg.Edges(), want) {
		t.Fatalf("Edges = %v, want %v", tg.Edges(), want)
	}
}

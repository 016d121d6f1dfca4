// Differential harness for Section III-B's window metrics: the tick
// ASAP/ALAP recurrence and corner sweep of internal/taskgraph
// (TaskGraph.Windows, Windows.Load, JobTicks.Demand) must reproduce the
// exact-rational implementations they replaced — the rational ASAP/ALAP
// recurrences and Load sweep, and the processor-demand bound that
// re-expanded the server-transformed network PN' in rationals — and every
// witness window must attain its bound. Checked on every registry
// application, every lint fixture that derives, scale:10k and a corpus of
// random networks; FuzzLoadMatchesReference adds the extreme-timing
// networks lint is fuzzed with.
package integration

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/nettest"
	"repro/internal/rational"
	"repro/internal/taskgraph"
)

// refASAP is the rational ASAP recurrence A'_i = max(A_i, max_p A'_p + C_p).
func refASAP(tg *taskgraph.TaskGraph) []rational.Rat {
	asap := make([]rational.Rat, len(tg.Jobs))
	for i, j := range tg.Jobs { // index order is topological
		t := j.Arrival
		for _, p := range tg.Pred[i] {
			if c := asap[p].Add(tg.Jobs[p].WCET); t.Less(c) {
				t = c
			}
		}
		asap[i] = t
	}
	return asap
}

// refALAP is the rational ALAP recurrence D'_i = min(D_i, min_s D'_s − C_s).
func refALAP(tg *taskgraph.TaskGraph) []rational.Rat {
	alap := make([]rational.Rat, len(tg.Jobs))
	for i := len(tg.Jobs) - 1; i >= 0; i-- {
		t := tg.Jobs[i].Deadline
		for _, s := range tg.Succ[i] {
			if c := alap[s].Sub(tg.Jobs[s].WCET); c.Less(t) {
				t = c
			}
		}
		alap[i] = t
	}
	return alap
}

// refLoad is the rational Load(TG) sweep: for each distinct ASAP start t1,
// prefix sums of the WCETs of jobs starting at or after t1 over the sorted
// distinct ALAP ends.
func refLoad(tg *taskgraph.TaskGraph, asap, alap []rational.Rat) rational.Rat {
	t1s, t2s := distinctRats(asap), distinctRats(alap)
	best := rational.Zero
	for _, t1 := range t1s {
		sums := make([]rational.Rat, len(t2s))
		for i := range tg.Jobs {
			if asap[i].Less(t1) {
				continue
			}
			pos := sort.Search(len(t2s), func(k int) bool { return !t2s[k].Less(alap[i]) })
			sums[pos] = sums[pos].Add(tg.Jobs[i].WCET)
		}
		acc := rational.Zero
		for pos, t2 := range t2s {
			acc = acc.Add(sums[pos])
			if !t1.Less(t2) || acc.IsZero() {
				continue
			}
			if ratio := acc.Div(t2.Sub(t1)); best.Less(ratio) {
				best = ratio
			}
		}
	}
	return best
}

func distinctRats(ts []rational.Rat) []rational.Rat {
	out := append([]rational.Rat(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	k := 0
	for i, t := range out {
		if i == 0 || !t.Equal(out[k-1]) {
			out[k] = t
			k++
		}
	}
	return out[:k]
}

// demandJob is one job of PN' as the processor-demand criterion sees it.
type demandJob struct{ arrival, deadline, wcet rational.Rat }

// refDemand is the processor-demand bound as it was computed before the
// task graph owned it: expand one hyperperiod frame of PN' from the
// network in rationals (server periods substituted, server deadlines
// d_p − T'_p, truncation to H), then take the largest ⌈demand/length⌉
// over every (arrival, deadline) corner window.
func refDemand(t *testing.T, net *core.Network) int {
	t.Helper()
	substitute := make(map[string]rational.Rat)
	for _, p := range net.Processes() {
		if !p.IsSporadic() {
			continue
		}
		u, err := net.UserOf(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		tp := u.Period()
		if !tp.Less(p.Deadline()) {
			_, frac, ok := taskgraph.FractionalServerPeriod(tp, p.Deadline())
			if !ok {
				t.Fatalf("no server period for sporadic %q", p.Name)
			}
			tp = frac
		}
		substitute[p.Name] = tp
	}
	h, err := core.Hyperperiod(net, substitute)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []demandJob
	for _, p := range net.Processes() {
		period := p.Period()
		tp, server := substitute[p.Name]
		if server {
			period = tp
		}
		for a := rational.Zero; a.Less(h); a = a.Add(period) {
			d := a.Add(p.Deadline())
			if server {
				d = d.Sub(tp)
			}
			for b := 0; b < p.Burst(); b++ {
				jobs = append(jobs, demandJob{a, minRat(d, h), p.WCET})
			}
		}
	}
	// Bucket WCETs by deadline; jobs join their bucket once the
	// descending arrival scan passes their arrival, so bucket prefix sums
	// over deadlines <= d are the demand of [a, d].
	var arrivalList, deadlineList []rational.Rat
	byArrival := make(map[string][]demandJob)
	for _, j := range jobs {
		arrivalList = append(arrivalList, j.arrival)
		deadlineList = append(deadlineList, j.deadline)
		byArrival[j.arrival.String()] = append(byArrival[j.arrival.String()], j)
	}
	arrivals, deadlines := distinctRats(arrivalList), distinctRats(deadlineList)
	dIdx := make(map[string]int, len(deadlines))
	for i, d := range deadlines {
		dIdx[d.String()] = i
	}
	buckets := make([]rational.Rat, len(deadlines))
	best := 0
	for ai := len(arrivals) - 1; ai >= 0; ai-- {
		a := arrivals[ai]
		for _, j := range byArrival[a.String()] {
			i := dIdx[j.deadline.String()]
			buckets[i] = buckets[i].Add(j.wcet)
		}
		cum := rational.Zero
		for di, d := range deadlines {
			cum = cum.Add(buckets[di])
			if !a.Less(d) || cum.Sign() <= 0 {
				continue
			}
			if need := int(cum.Div(d.Sub(a)).Ceil()); need > best {
				best = need
			}
		}
	}
	return best
}

// demandBound is the nominal processor-demand bound of net's derived
// task graph; the error is the derivation's.
func demandBound(net *core.Network) (taskgraph.Window, error) {
	tg, err := taskgraph.Derive(net)
	if err != nil {
		return taskgraph.Window{}, err
	}
	jt, err := tg.Ticks()
	if err != nil {
		return taskgraph.Window{}, err
	}
	return jt.Demand(), nil
}

// assertWitness checks that w attains its density: the jobs whose
// (start, end) window lies inside [w.Start, w.End] hold exactly w.Demand,
// and w.Density is w.Demand / (w.End − w.Start) and equals want.
func assertWitness(t *testing.T, what string, w taskgraph.Window, start, end []rational.Rat,
	tg *taskgraph.TaskGraph, want rational.Rat) {
	t.Helper()
	if !w.Density.Equal(want) {
		t.Fatalf("%s: density %v, rational oracle %v", what, w.Density, want)
	}
	if w.Demand.Sign() == 0 {
		if want.Sign() != 0 {
			t.Fatalf("%s: no witness window for density %v", what, want)
		}
		return
	}
	demand := rational.Zero
	for i, j := range tg.Jobs {
		if !start[i].Less(w.Start) && end[i].LessEq(w.End) {
			demand = demand.Add(j.WCET)
		}
	}
	if !demand.Equal(w.Demand) || !w.Demand.Div(w.End.Sub(w.Start)).Equal(w.Density) {
		t.Fatalf("%s: witness %+v holds demand %v", what, w, demand)
	}
}

// assertWindowMetricsMatch derives net and holds the tick windows, Load
// and demand bound to the rational oracles. It reports false when net has
// no task graph.
func assertWindowMetricsMatch(t *testing.T, net *core.Network) bool {
	t.Helper()
	tg, err := taskgraph.Derive(net)
	if err != nil {
		return false
	}
	w, err := tg.Windows()
	if err != nil {
		t.Fatalf("%s: derived graph has no windows: %v", net.Name, err)
	}
	asap, alap := refASAP(tg), refALAP(tg)
	for i, j := range tg.Jobs {
		if !w.Scale.FromTicks(w.ASAP[i]).Equal(asap[i]) || !w.Scale.FromTicks(w.ALAP[i]).Equal(alap[i]) {
			t.Fatalf("%s: job %s window (%v, %v) in ticks, (%v, %v) in rationals", net.Name, j.Name(),
				w.Scale.FromTicks(w.ASAP[i]), w.Scale.FromTicks(w.ALAP[i]), asap[i], alap[i])
		}
	}
	load := w.Load()
	assertWitness(t, net.Name+" load", load, asap, alap, tg, refLoad(tg, asap, alap))

	arrivals := make([]rational.Rat, len(tg.Jobs))
	deadlines := make([]rational.Rat, len(tg.Jobs))
	for i, j := range tg.Jobs {
		arrivals[i], deadlines[i] = j.Arrival, j.Deadline
	}
	dem := w.Demand()
	assertWitness(t, net.Name+" demand", dem, arrivals, deadlines, tg, dem.Density)
	if got, want := dem.Processors(), refDemand(t, net); got != want {
		t.Fatalf("%s: demand bound %d, rational PN' expansion %d", net.Name, got, want)
	}
	if load.Density.Less(dem.Density) {
		t.Fatalf("%s: nominal demand density %v above Load %v", net.Name, dem.Density, load.Density)
	}
	return true
}

// TestLoadMatchesReference pins the tick window metrics to the rational
// oracles on every registry application, every lint fixture that derives,
// scale:10k and at least 500 random networks.
func TestLoadMatchesReference(t *testing.T) {
	for _, name := range apps.Names() {
		net, err := apps.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		if !assertWindowMetricsMatch(t, net) {
			t.Fatalf("registry app %s does not derive", name)
		}
	}
	derived := 0
	for _, name := range lint.FixtureNames() {
		if assertWindowMetricsMatch(t, lint.Fixtures()[name]()) {
			derived++
		}
	}
	if derived == 0 {
		t.Error("no lint fixture derives")
	}
	model, err := cli.LoadModel("scale:10k")
	if err != nil {
		t.Fatal(err)
	}
	assertWindowMetricsMatch(t, model.Net)
	checked := 0
	for i := 0; i < trialCount(t, 500); i++ {
		if assertWindowMetricsMatch(t, nettest.Random(rand.New(rand.NewSource(int64(7000+i))), nettest.Options{})) {
			checked++
		}
	}
	if checked < trialCount(t, 500)/2 {
		t.Errorf("only %d random networks derive", checked)
	}
}

// maxOracleJobs bounds the frames FuzzLoadMatchesReference hands to the
// rational oracles.
const maxOracleJobs = 4096

// FuzzLoadMatchesReference explores the same equivalence over random
// networks (empty timing) and the extreme-timing networks lint is fuzzed
// with (nettest.TimingNet): whenever a network derives, its tick windows,
// Load and demand bound equal the rational oracles exactly. The oracles
// are quadratic in the frame, so frames of PN' beyond maxOracleJobs are
// skipped.
func FuzzLoadMatchesReference(f *testing.F) {
	for seed := 0; seed < trialCount(f, 16); seed++ {
		f.Add(int64(seed), []byte(nil))
	}
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, nettest.ExtremeTiming(rand.New(rand.NewSource(seed))))
	}
	f.Fuzz(func(t *testing.T, seed int64, timing []byte) {
		net := nettest.Random(rand.New(rand.NewSource(seed)), nettest.Options{})
		if len(timing) > 0 {
			net = nettest.TimingNet(timing)
		}
		if tm, err := taskgraph.LowerTiming(net, rational.Zero); err != nil || tm.Jobs > maxOracleJobs {
			t.Skip()
		}
		assertWindowMetricsMatch(t, net)
	})
}

// TestDemandBoundBrokenTimingFrameGuard checks that the demand bound of
// lint's broken-timing fixture, whose PN' holds 24,945,752 jobs per frame,
// fails fast with the derivation's frame-size error instead of expanding
// the frame.
func TestDemandBoundBrokenTimingFrameGuard(t *testing.T) {
	start := time.Now()
	w, err := demandBound(lint.BrokenTiming())
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("took %v, want under a second", elapsed)
	}
	var te *taskgraph.TimescaleError
	if !errors.As(err, &te) || !strings.Contains(err.Error(), "more than 2^20 jobs") {
		t.Fatalf("demand bound = %+v, %v; want the 2^20-job frame error", w, err)
	}
}

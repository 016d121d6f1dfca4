package integration

import (
	"math/rand"
	"testing"

	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/nettest"
	"repro/internal/rational"
	"repro/internal/staticflow"
)

// FuzzJobOrderMatchesReference checks core's integer zero-delay order
// (core.JobOrder over Network.FPRank) against the string-keyed oracle
// job for job — process, invocation count and exact time — and error for
// error. Each seed draws a random network, a random sporadic schedule, a
// linear-extension seed (the default order when negative) and a horizon
// that is usually not a multiple of the hyperperiod, shorter than one
// frame included. As a plain test it replays a seed corpus sized by
// FPPN_FUZZ_TRIALS.
func FuzzJobOrderMatchesReference(f *testing.F) {
	for seed := 0; seed < trialCount(f, 32); seed++ {
		f.Add(int64(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		net := nettest.Random(rng, nettest.Options{})
		h, err := core.Hyperperiod(net, nil)
		if err != nil {
			t.Skip()
		}
		// horizon = h·q/8 for q in [1, 32]: from an eighth of a frame to
		// four frames, a multiple of h only when 8 divides q.
		horizon := h.Mul(rational.New(1+rng.Int63n(32), 8))
		events := nettest.RandomEvents(rng, net, horizon)
		if len(events) > 0 && rng.Intn(4) == 0 {
			// An event at the horizon: both sides must refuse it alike.
			for _, p := range net.Processes() {
				if evs, ok := events[p.Name]; ok {
					events[p.Name] = append(evs, horizon)
					break
				}
			}
		}
		order := int64(rng.Intn(8)) - 2
		checkJobOrder(t, net, horizon, events, order)
	})
}

// checkJobOrder compares core's order of net over [0, horizon) under the
// FP linear extension chosen by seed with the oracle's.
func checkJobOrder(t *testing.T, net *core.Network, horizon core.Time, events map[string][]core.Time, seed int64) {
	t.Helper()
	want, wantErr := zeroDelayJobsReference(net, horizon, events, seed)
	rank, err := net.FPRank(seed)
	if err != nil {
		t.Fatal(err)
	}
	order, gotErr := core.JobOrder(net, rank, horizon, events)
	got := order.Refs()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("error verdicts diverge: core %v, oracle %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("core orders %d jobs, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Proc != want[i].Proc || got[i].K != want[i].K || !got[i].Time.Equal(want[i].Time) {
			t.Fatalf("job %d: core %v, oracle %v", i, got[i], want[i])
		}
	}
}

// TestJobOrderMatchesReferenceFig1 pins the order on the paper's Fig. 1
// network with bursty sporadic events, over whole, partial and sub-frame
// horizons and several linear extensions.
func TestJobOrderMatchesReferenceFig1(t *testing.T) {
	net := signal.New()
	events := map[string][]core.Time{signal.CoefB: {rational.Milli(0), rational.Milli(0), rational.Milli(700), rational.Milli(1450)}}
	for _, horizon := range []core.Time{rational.Milli(2800), rational.Milli(2100), rational.Milli(1500), rational.Milli(50)} {
		ev := events
		if horizon.LessEq(rational.Milli(1450)) {
			ev = map[string][]core.Time{signal.CoefB: {rational.Milli(0), rational.Milli(0)}}
		}
		for seed := int64(-1); seed < 4; seed++ {
			checkJobOrder(t, net, horizon, ev, seed)
		}
	}
}

// TestGenerateInvocationsMergesInstants: the oracle merges every
// invocation at one time stamp into one instant.
func TestGenerateInvocationsMergesInstants(t *testing.T) {
	invs, err := generateInvocations(signal.New(), rational.Milli(200), map[string][]core.Time{signal.CoefB: {rational.Milli(0), rational.Milli(150)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 3 {
		t.Fatalf("got %d instants, want 3 (0, 100, 150): %v", len(invs), invs)
	}
	if !invs[0].time.IsZero() || len(invs[0].procs) != 7 {
		t.Errorf("instant 0: %v, want 7 invocations (6 periodic + CoefB)", invs[0])
	}
	if !invs[1].time.Equal(rational.Milli(100)) || len(invs[1].procs) != 2 {
		t.Errorf("instant 100: %v, want FilterA+OutputB", invs[1])
	}
	if !invs[2].time.Equal(rational.Milli(150)) || len(invs[2].procs) != 1 || invs[2].procs[0] != signal.CoefB {
		t.Errorf("instant 150: %v, want CoefB only", invs[2])
	}
}

// TestInvocationTimesSortedAndMerged: instants are strictly increasing and
// no two instants share a time stamp.
func TestInvocationTimesSortedAndMerged(t *testing.T) {
	invs, err := generateInvocations(signal.New(), rational.Milli(1400), map[string][]core.Time{
		signal.CoefB: {rational.Milli(100), rational.Milli(150)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(invs); i++ {
		if !invs[i-1].time.Less(invs[i].time) {
			t.Fatalf("instants not strictly increasing at %d", i)
		}
	}
}

// TestGenerateInvocationsCounts: the number of invocations of a periodic
// process over [0, n·T) is exactly n·burst for any parameters.
func TestGenerateInvocationsCounts(t *testing.T) {
	for _, tc := range []struct {
		period int64
		burst  int
		mult   int64
	}{
		{100, 1, 7}, {200, 2, 3}, {50, 3, 5}, {700, 2, 2},
	} {
		n := core.NewNetwork("count")
		n.AddMultiPeriodic("p", tc.burst, rational.Milli(tc.period), rational.Milli(tc.period), rational.Milli(1), nil)
		invs, err := generateInvocations(n, rational.Milli(tc.period*tc.mult), nil)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, inv := range invs {
			total += len(inv.procs)
		}
		if want := int(tc.mult) * tc.burst; total != want {
			t.Errorf("T=%d m=%d over %d periods: %d invocations, want %d",
				tc.period, tc.burst, tc.mult, total, want)
		}
	}
}

// TestJobSequenceAssignsK: the oracle numbers each process's jobs 1, 2,
// ... in time order.
func TestJobSequenceAssignsK(t *testing.T) {
	jobs, err := zeroDelayJobsReference(signal.New(), rational.Milli(400), nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	ks := map[string][]int64{}
	for _, j := range jobs {
		ks[j.Proc] = append(ks[j.Proc], j.K)
	}
	if got := ks[signal.FilterA]; len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Errorf("FilterA invocation counts = %v, want 1..4", got)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Time.Less(jobs[i-1].Time) {
			t.Fatal("job sequence not sorted by time")
		}
	}
}

// maxFuzzOrderJobs bounds the orders FuzzJobOrderNeverPanics goes on to
// execute and sweep: a frame of up to core.MaxFrameJobs jobs is a valid
// order, but replaying it every iteration would starve the fuzzer.
const maxFuzzOrderJobs = 1 << 14

// FuzzJobOrderNeverPanics feeds extreme-timing networks
// (nettest.TimingNet; nettest.Random for empty timing), with and without
// random sporadic events, through
// core.JobOrder, CompiledNet.RunZeroDelay and staticflow.Buffers. Each
// call returns an order, a result or an error and never panics; timing
// beyond the order's integer timescale is an error naming the network.
// RunZeroDelay fails exactly when JobOrder does and runs its jobs.
func FuzzJobOrderNeverPanics(f *testing.F) {
	for seed := int64(0); seed < int64(trialCount(f, 32)); seed++ {
		f.Add(seed, nettest.ExtremeTiming(rand.New(rand.NewSource(seed))))
		f.Add(seed, []byte(nil))
	}
	f.Fuzz(func(t *testing.T, seed int64, timing []byte) {
		rng := rand.New(rand.NewSource(seed))
		net := nettest.Random(rng, nettest.Options{})
		if len(timing) > 0 {
			net = nettest.TimingNet(timing)
		}
		rank, err := net.FPRank(-1)
		if err != nil {
			t.Skip()
		}
		h, err := core.Hyperperiod(net, nil)
		if err != nil {
			t.Skip()
		}
		// horizon = h·q/8 for q in [1, 32] where that fits a rational,
		// else h.
		horizon := h
		q := 1 + rng.Int63n(32)
		if num, ok := rational.MulOK(h.Num(), q); ok {
			if den, ok := rational.MulOK(h.Den(), 8); ok {
				horizon = rational.New(num, den)
			}
		}
		var events map[string][]core.Time
		if rng.Intn(2) == 0 {
			events = nettest.RandomEvents(rng, net, horizon)
		}
		order, orderErr := core.JobOrder(net, rank, horizon, events)
		if orderErr == nil && len(order.Refs()) != len(order.Jobs) {
			t.Fatalf("%d refs for %d jobs", len(order.Refs()), len(order.Jobs))
		}
		if orderErr == nil && len(order.Jobs) > maxFuzzOrderJobs {
			return
		}
		if cn, err := core.CompileNetwork(net); err == nil {
			res, err := cn.RunZeroDelay(horizon, core.ZeroDelayOptions{SporadicEvents: events, Seed: -1})
			if (err == nil) != (orderErr == nil) {
				t.Fatalf("RunZeroDelay error %v, JobOrder error %v", err, orderErr)
			}
			if err == nil && len(res.Jobs) != len(order.Jobs) {
				t.Fatalf("RunZeroDelay ran %d jobs, the order holds %d", len(res.Jobs), len(order.Jobs))
			}
		}
		if frame, err := core.JobOrderFrames(net, rank, 1, nil); err == nil && len(frame.Jobs) > maxFuzzOrderJobs/4 {
			return
		}
		_, _ = staticflow.Buffers(net, 2+rng.Intn(3), events)
	})
}

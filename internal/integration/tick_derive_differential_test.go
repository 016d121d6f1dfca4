// Differential harness for the tick-lowered derivation: the int64 tick
// simulation of taskgraph.Derive must produce exactly the job sequence of
// the exact-rational simulation (simulateFrameRational) — the same jobs in
// the same <_J order with the same (A_i, D_i, C_i), the same H — and its
// tick table must hold those very times. Edges are computed from the job
// sequence by one shared pipeline, so equal sequences mean equal task
// graphs. Checked on the paper applications (with and without deadline
// slack) and a corpus of random networks; FuzzDeriveTickMatchesRational
// explores arbitrary seeds.
package integration

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apps/fft"
	"repro/internal/apps/fms"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/nettest"
	"repro/internal/rational"
	"repro/internal/taskgraph"
)

// deriveBothTimescales derives net and fails the test unless its jobs,
// hyperperiod and tick table match the rational simulation exactly.
func deriveBothTimescales(t *testing.T, net *core.Network, opts taskgraph.Options) {
	t.Helper()
	tg, err := taskgraph.DeriveOpts(net, opts)
	if err != nil {
		t.Fatalf("tick derive: %v", err)
	}
	assertJobsMatchRational(t, net, tg, opts.DeadlineSlack)
}

func assertJobsMatchRational(t *testing.T, net *core.Network, tg *taskgraph.TaskGraph, slack rational.Rat) {
	t.Helper()
	h, want, err := simulateFrameRational(net, tg, slack)
	if err != nil {
		t.Fatalf("rational simulation: %v", err)
	}
	if h != tg.Hyperperiod {
		t.Fatalf("tick-derived H = %v, rational H = %v", tg.Hyperperiod, h)
	}
	if len(tg.Jobs) != len(want) {
		t.Fatalf("tick derivation has %d jobs, rational simulation %d", len(tg.Jobs), len(want))
	}
	jt, err := tg.Ticks()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		got := tg.Jobs[i]
		if !reflect.DeepEqual(*got, *w) {
			t.Fatalf("job %d: tick %+v, rational %+v", i, *got, *w)
		}
		if tg.Job(w.Proc, w.K) != got {
			t.Fatalf("job index does not map %s to position %d", w.Name(), i)
		}
		if a, c, d := jt.Scale.FromTicks(jt.Arrival[i]), jt.Scale.FromTicks(jt.WCET[i]), jt.Scale.FromTicks(jt.Deadline[i]); a != w.Arrival || c != w.WCET || d != w.Deadline {
			t.Fatalf("job %s: tick table (%v, %v, %v), rational (%v, %v, %v)",
				w.Name(), a, c, d, w.Arrival, w.WCET, w.Deadline)
		}
	}
}

// TestDeriveTickMatchesRationalPaperApps pins the tick/rational equivalence
// on the paper applications, including a pipelined (deadline-slack) variant
// and the kept-redundant-edges mode.
func TestDeriveTickMatchesRationalPaperApps(t *testing.T) {
	builds := []struct {
		name  string
		build func() *core.Network
	}{
		{"signal", signal.New},
		{"fft", fft.New},
		{"fft-overhead", fft.NewWithOverheadJob},
		{"fms", fms.New},
	}
	variants := []struct {
		name string
		opts taskgraph.Options
	}{
		{"default", taskgraph.Options{}},
		{"slack", taskgraph.Options{DeadlineSlack: rational.New(1, 200)}},
		{"unreduced", taskgraph.Options{KeepRedundantEdges: true}},
	}
	for _, b := range builds {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			net := b.build()
			for _, v := range variants {
				t.Run(v.name, func(t *testing.T) {
					deriveBothTimescales(t, net, v.opts)
				})
			}
		})
	}
}

// TestDeriveTickMatchesRationalRandomNetworks sweeps ≥50 random networks
// through both timescales.
func TestDeriveTickMatchesRationalRandomNetworks(t *testing.T) {
	trials := trialCount(t, 50)
	rng := rand.New(rand.NewSource(171717))
	for trial := 0; trial < trials; trial++ {
		net := nettest.Random(rng, nettest.Options{})
		trial := trial
		t.Run(fmt.Sprintf("net%03d", trial), func(t *testing.T) {
			deriveBothTimescales(t, net, taskgraph.Options{})
		})
	}
}

// FuzzDeriveTickMatchesRational explores generator seeds, demanding the
// tick-lowered derivation reproduce the rational oracle exactly.
func FuzzDeriveTickMatchesRational(f *testing.F) {
	for seed := 0; seed < trialCount(f, 16); seed++ {
		f.Add(int64(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		net := nettest.Random(rng, nettest.Options{})
		tg, err := taskgraph.DeriveOpts(net, taskgraph.Options{})
		if errors.As(err, new(*taskgraph.TimescaleError)) {
			t.Fatalf("generated network does not fit the integer timescale: %v", err)
		}
		if err != nil {
			return // not derivable in either arithmetic
		}
		assertJobsMatchRational(t, net, tg, rational.Zero)
	})
}

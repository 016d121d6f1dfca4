// Differential determinism harness for the parallel portfolio: on one
// derived task graph, every worker count must produce byte-for-byte the
// same portfolio schedule and the same runtime report as the sequential
// (workers=1) reference. Checked on the three paper applications and on a
// corpus of random networks.
package integration

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apps/fft"
	"repro/internal/apps/fms"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/nettest"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// workerCounts are the fan-out settings compared against the sequential
// reference; they cover the default (GOMAXPROCS), an odd count and a count
// exceeding any input size dimension likely on CI.
var workerCounts = []int{0, 2, 3, 8}

// derive derives net's task graph, failing the test on error.
func derive(t *testing.T, net *core.Network) *taskgraph.TaskGraph {
	t.Helper()
	tg, err := taskgraph.Derive(net)
	if err != nil {
		t.Fatalf("derive: %v", err)
	}
	return tg
}

// scheduleJSON runs the heuristic portfolio with the given worker count and
// returns the winning schedule plus its canonical JSON serialization.
func scheduleJSON(t *testing.T, tg *taskgraph.TaskGraph, m, workers int) (*sched.Schedule, string) {
	t.Helper()
	s, err := sched.Portfolio(tg, m, sched.PortfolioOptions{Workers: workers})
	if err != nil {
		t.Fatalf("portfolio workers=%d: %v", workers, err)
	}
	text, err := export.MarshalIndent(export.Schedule(s))
	if err != nil {
		t.Fatalf("marshal schedule workers=%d: %v", workers, err)
	}
	return s, text
}

// TestDifferentialPaperApps proves the parallel portfolio changes nothing
// on the three applications of the paper: the portfolio schedule and the
// runtime report are deep-equal and JSON byte-identical at every worker
// count.
func TestDifferentialPaperApps(t *testing.T) {
	apps := []struct {
		name   string
		build  func() *core.Network
		m      int
		inputs map[string][]core.Value
	}{
		{"signal", signal.New, 2, signal.Inputs(2)},
		{"fft", fft.New, 2, fft.Inputs([]fft.Frame{{1, 2, 3, 4}, {5, 6, 7, 8}})},
		{"fft-overhead", fft.NewWithOverheadJob, 2, nil},
		{"fms", fms.New, 2, fms.Inputs(100)},
	}
	for _, app := range apps {
		app := app
		t.Run(app.name, func(t *testing.T) {
			t.Parallel()
			tg := derive(t, app.build())
			refS, refSJSON := scheduleJSON(t, tg, app.m, 1)
			refPlan, err := plan.Compile(refS)
			if err != nil {
				t.Fatal(err)
			}
			refRep, err := refPlan.Run(plan.Config{Frames: 2, Inputs: app.inputs})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			refRepJSON, err := export.MarshalIndent(export.Report(refRep))
			if err != nil {
				t.Fatal(err)
			}

			for _, w := range workerCounts {
				s, sJSON := scheduleJSON(t, tg, app.m, w)
				if s.Heuristic != refS.Heuristic || !reflect.DeepEqual(s.Assign, refS.Assign) {
					t.Fatalf("workers=%d: portfolio schedule differs from sequential", w)
				}
				if sJSON != refSJSON {
					t.Fatalf("workers=%d: schedule JSON differs from sequential", w)
				}
				p, err := plan.Compile(s)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := p.Run(plan.Config{Frames: 2, Inputs: app.inputs})
				if err != nil {
					t.Fatalf("workers=%d: run: %v", w, err)
				}
				repJSON, err := export.MarshalIndent(export.Report(rep))
				if err != nil {
					t.Fatal(err)
				}
				if repJSON != refRepJSON {
					t.Fatalf("workers=%d: runtime report JSON differs from sequential", w)
				}
			}
		})
	}
}

// TestDifferentialRandomNetworks sweeps ≥50 random networks: for each, the
// parallel portfolio must match the sequential reference byte-for-byte.
func TestDifferentialRandomNetworks(t *testing.T) {
	trials := trialCount(t, 50)
	rng := rand.New(rand.NewSource(4242))
	nets := make([]*core.Network, trials)
	for i := range nets {
		nets[i] = nettest.Random(rng, nettest.Options{})
	}

	for trial, net := range nets {
		trial, net := trial, net
		t.Run(fmt.Sprintf("net%03d", trial), func(t *testing.T) {
			t.Parallel()
			tg := derive(t, net)
			m := len(tg.Jobs) // feasible by construction at one job per processor
			refS, refSJSON := scheduleJSON(t, tg, m, 1)
			for _, w := range workerCounts {
				s, sJSON := scheduleJSON(t, tg, m, w)
				if s.Heuristic != refS.Heuristic {
					t.Fatalf("workers=%d: portfolio winner %v, sequential picked %v",
						w, s.Heuristic, refS.Heuristic)
				}
				if sJSON != refSJSON {
					t.Fatalf("workers=%d: schedule JSON differs from sequential", w)
				}
			}
		})
	}
}

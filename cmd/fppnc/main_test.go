package main

import (
	"testing"

	"repro/internal/cli"
)

func TestParseHeuristic(t *testing.T) {
	// The parser now lives in internal/cli, shared with fppnsim and the
	// fppnd daemon; keep a smoke check at the call site.
	for _, name := range []string{"alap-edf", "b-level", "deadline-monotonic", "edf"} {
		if _, err := cli.ParseHeuristic(name); err != nil {
			t.Errorf("ParseHeuristic(%s): %v", name, err)
		}
	}
	if _, err := cli.ParseHeuristic("magic"); err == nil {
		t.Error("unknown heuristic accepted")
	}
}

func TestRunSmoke(t *testing.T) {
	cases := []struct {
		app             string
		m               int
		dot, json       string
		gantt, tbl      bool
		buffers, compar bool
	}{
		{"signal", 2, "", "", true, true, true, true},
		{"signal", 2, "taskgraph", "", false, false, false, false},
		{"signal", 2, "network", "", false, false, false, false},
		{"signal", 2, "", "network", false, false, false, false},
		{"signal", 2, "", "taskgraph", false, false, false, false},
		{"signal", 2, "", "schedule", false, false, false, false},
		{"fft", 1, "", "", true, false, false, false}, // infeasible branch
	}
	for _, c := range cases {
		if err := run(c.app, c.m, "alap-edf", "on", c.dot, c.json, c.gantt, c.tbl, c.buffers, c.compar, 60); err != nil {
			t.Errorf("run(%+v): %v", c, err)
		}
	}
	// Usage errors (unknown names, bad flag values) exit with status 2;
	// genuine model or compile failures exit with 1.
	for _, bad := range []struct{ app, heuristic, vet string }{
		{"ghost", "alap-edf", "on"},
		{"signal", "magic", "on"},
		{"signal", "alap-edf", "sideways"},
	} {
		err := run(bad.app, 1, bad.heuristic, bad.vet, "", "", false, false, false, false, 60)
		if err == nil {
			t.Errorf("run(%+v) accepted", bad)
		} else if got := cli.ExitCode(err); got != cli.ExitUsage {
			t.Errorf("run(%+v) exit code = %d, want %d", bad, got, cli.ExitUsage)
		}
	}
}

func TestRunPortfolioMode(t *testing.T) {
	// The portfolio mode must succeed on a feasible processor count and
	// fail with a model error on an infeasible one.
	if err := run("signal", 2, "portfolio", "on", "", "", false, false, false, false, 60); err != nil {
		t.Errorf("portfolio: %v", err)
	}
	err := run("signal", 1, "portfolio", "on", "", "", false, false, false, false, 60)
	if err == nil {
		t.Error("portfolio on an infeasible processor count must fail")
	} else if got := cli.ExitCode(err); got != cli.ExitError {
		t.Errorf("model failure exit code = %d, want %d", got, cli.ExitError)
	}
}

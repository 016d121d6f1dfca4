package main

import (
	"testing"

	"repro/internal/cli"
	"repro/internal/rational"
)

func TestParseEvents(t *testing.T) {
	evs, err := parseEvents("CoefB@0.05, CoefB@1/20, Other@2")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs["CoefB"]) != 2 || len(evs["Other"]) != 1 {
		t.Fatalf("parsed %v", evs)
	}
	if !evs["CoefB"][0].Equal(rational.New(1, 20)) || !evs["CoefB"][1].Equal(rational.New(1, 20)) {
		t.Errorf("times = %v", evs["CoefB"])
	}
	if !evs["Other"][0].Equal(rational.FromInt(2)) {
		t.Errorf("Other time = %v", evs["Other"][0])
	}
	if evs, err := parseEvents(""); err != nil || evs != nil {
		t.Error("empty spec should parse to nil")
	}
	for _, bad := range []string{"noat", "p@x/y", "@1"} {
		if _, err := parseEvents(bad); err == nil && bad != "@1" {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	// End-to-end smoke of the simulator command path for each app.
	for _, app := range []string{"signal", "fft"} {
		if err := run(app, 2, 2, "none", "", false, true, 80); err != nil {
			t.Errorf("%s: %v", app, err)
		}
	}
	if err := run("fft", 1, 3, "mppa", "", false, false, 80); err != nil {
		t.Errorf("fft overloaded: %v", err)
	}
	if err := run("signal", 2, 7, "none", "CoefB@0.05", true, true, 80); err != nil {
		t.Errorf("concurrent signal: %v", err)
	}
	for _, bad := range []struct{ app, overhead, events string }{
		{"ghost", "none", ""},
		{"signal", "warp", ""},
		{"signal", "none", "bad"},
	} {
		err := run(bad.app, 1, 1, bad.overhead, bad.events, false, false, 80)
		if err == nil {
			t.Errorf("run(%+v) accepted", bad)
		} else if got := cli.ExitCode(err); got != cli.ExitUsage {
			t.Errorf("run(%+v) exit code = %d, want %d", bad, got, cli.ExitUsage)
		}
	}
}

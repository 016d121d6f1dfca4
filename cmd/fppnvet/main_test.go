package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/lint"
)

func TestExitStatuses(t *testing.T) {
	cases := []struct {
		app    string
		status int
	}{
		{"signal", exitClean},
		{"fft", exitClean},
		{"fft-overhead", exitClean},
		{"fms", exitClean},
		{"fms-original", exitClean},
		{"broken-model", exitFindings},
		{"broken-timing", exitFindings},
		{"broken-flow", exitFindings},
		{"broken-feas", exitFindings},
		{"broken-hb", exitFindings},
		{"broken-timescale", exitFindings},
		{"empty", exitFindings},
		{"ghost", exitUsage},
	}
	for _, c := range cases {
		var out bytes.Buffer
		status, err := run(&out, options{app: c.app, m: 2})
		if status != c.status {
			t.Errorf("run(%s) status = %d (err %v), want %d", c.app, status, err, c.status)
		}
		if c.status == exitUsage {
			if err == nil {
				t.Errorf("run(%s): no error reported", c.app)
			}
			continue
		}
		if err != nil {
			t.Errorf("run(%s): %v", c.app, err)
		}
		if out.Len() == 0 {
			t.Errorf("run(%s): no report written", c.app)
		}
	}
	if status, err := run(&bytes.Buffer{}, options{app: "signal", m: 0}); status != exitUsage || err == nil {
		t.Errorf("non-positive -m accepted: status %d, err %v", status, err)
	}
}

// The -json output must be byte-identical to the golden reports pinned in
// internal/lint/testdata.
func TestJSONMatchesGolden(t *testing.T) {
	for _, app := range []string{"signal", "fft", "fms", "broken-model", "broken-timing", "broken-flow", "broken-feas", "broken-hb", "broken-timescale"} {
		var out bytes.Buffer
		if _, err := run(&out, options{app: app, m: 2, json: true}); err != nil {
			t.Fatalf("run(%s): %v", app, err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "internal", "lint", "testdata", app+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: -json output differs from golden testdata:\n%s", app, out.String())
		}
	}
}

func TestTextOutput(t *testing.T) {
	var out bytes.Buffer
	if status, err := run(&out, options{app: "broken-model", m: 2}); status != exitFindings || err != nil {
		t.Fatalf("status %d, err %v", status, err)
	}
	for _, want := range []string{"error FPPN001", "error FPPN004", "fix:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, out.String())
		}
	}
}

// -select keeps only the named codes; -ignore drops them; unknown codes
// in either are usage errors.
func TestSelectIgnoreFilters(t *testing.T) {
	var out bytes.Buffer
	if status, err := run(&out, options{app: "broken-model", m: 2, sel: "FPPN003,FPPN016"}); status != exitFindings || err != nil {
		t.Fatalf("select: status %d, err %v", status, err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "FPPN") &&
			!strings.Contains(line, "FPPN003") && !strings.Contains(line, "FPPN016") {
			t.Errorf("-select let a foreign code through: %s", line)
		}
	}

	// Ignoring every code that fires turns broken-timing clean (exit 0).
	out.Reset()
	ignored := "FPPN006,FPPN007,FPPN008,FPPN009,FPPN010,FPPN011,FPPN012"
	status, err := run(&out, options{app: "broken-timing", m: 2, ign: ignored})
	if status != exitClean || err != nil {
		t.Fatalf("ignore all: status %d, err %v\n%s", status, err, out.String())
	}
	if !strings.Contains(out.String(), "ok (0 findings)") {
		t.Errorf("fully ignored report not rendered clean:\n%s", out.String())
	}

	// -select and -ignore compose: selected-then-ignored codes vanish.
	out.Reset()
	status, err = run(&out, options{app: "broken-timing", m: 2, sel: "FPPN012", ign: "FPPN012"})
	if status != exitClean || err != nil {
		t.Fatalf("select∩ignore: status %d, err %v", status, err)
	}

	for _, bad := range []string{"FPPN999", "nonsense"} {
		if status, err := run(&bytes.Buffer{}, options{app: "signal", m: 2, sel: bad}); status != exitUsage || err == nil {
			t.Errorf("-select %s: status %d, err %v, want usage error", bad, status, err)
		}
		if status, err := run(&bytes.Buffer{}, options{app: "signal", m: 2, ign: bad}); status != exitUsage || err == nil {
			t.Errorf("-ignore %s: status %d, err %v, want usage error", bad, status, err)
		}
	}
}

// -suggest-fp must print a machine-applicable edge set: parsing the
// Priority lines back and applying them to a fresh broken-model removes
// every FPPN003 problem without introducing a cycle.
func TestSuggestFPFixesBrokenModel(t *testing.T) {
	var out bytes.Buffer
	status, err := run(&out, options{app: "broken-model", m: 2, suggestFP: true})
	if status != exitFindings || err != nil {
		t.Fatalf("status %d, err %v", status, err)
	}
	pattern := regexp.MustCompile(`^Priority\("([^"]+)", "([^"]+)"\)`)
	net := lint.BrokenModel()
	applied := 0
	for _, line := range strings.Split(out.String(), "\n") {
		m := pattern.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		net.Priority(m[1], m[2])
		applied++
	}
	if applied == 0 {
		t.Fatalf("no Priority lines in -suggest-fp output:\n%s", out.String())
	}
	for _, p := range net.Problems() {
		if p.Code == core.CodeFPCoverage {
			t.Errorf("FPPN003 persists after applying the suggested edges: %s", p.Message)
		}
	}

	// A clean model needs no edges and exits 0.
	out.Reset()
	status, err = run(&out, options{app: "signal", m: 2, suggestFP: true})
	if status != exitClean || err != nil {
		t.Fatalf("signal -suggest-fp: status %d, err %v", status, err)
	}
	if !strings.Contains(out.String(), "0 edges needed") {
		t.Errorf("clean -suggest-fp output = %q", out.String())
	}
}

// -all lints every registry application; the paper apps are clean, so
// the combined run exits 0 with one report per app.
func TestAllApps(t *testing.T) {
	var out bytes.Buffer
	status, err := run(&out, options{all: true, m: 2})
	if status != exitClean || err != nil {
		t.Fatalf("status %d, err %v\n%s", status, err, out.String())
	}
	if got, want := strings.Count(out.String(), "ok (0 findings)"), len(apps.Names()); got != want {
		t.Errorf("-all printed %d clean reports, want %d:\n%s", got, want, out.String())
	}
}

// Every registered app and every demo fixture must resolve, and the two
// name spaces must not collide.
func TestBuildTarget(t *testing.T) {
	for _, name := range apps.Names() {
		if _, ok := lint.Fixtures()[name]; ok {
			t.Errorf("app name %q collides with a fixture", name)
		}
		if net, err := buildTarget(name); err != nil || net == nil {
			t.Errorf("buildTarget(%s): %v", name, err)
		}
	}
	for _, name := range lint.FixtureNames() {
		if net, err := buildTarget(name); err != nil || net == nil {
			t.Errorf("buildTarget(%s): %v", name, err)
		}
	}
}

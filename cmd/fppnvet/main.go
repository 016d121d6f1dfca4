// Command fppnvet lints an FPPN model: it runs the structured diagnostics
// engine of internal/lint over an example application (or one of the
// intentionally broken demo fixtures) and reports the findings in text or
// JSON form.
//
// Usage:
//
//	fppnvet -app signal|fft|fft-overhead|fms|fms-original [-m N] [-json]
//	fppnvet -app broken-model|broken-timing|broken-flow|broken-feas|broken-hb|broken-timescale|empty   (demo fixtures)
//	fppnvet -all [-json]                  lint every registry application
//	fppnvet -app NAME -select FPPN003,FPPN016   keep only these codes
//	fppnvet -app NAME -ignore FPPN012           drop these codes
//	fppnvet -app NAME -suggest-fp         print the minimal FP completion
//
// -suggest-fp prints one Priority(hi, lo) line per edge of the minimal
// acyclic edge set that completes the functional-priority coverage of
// every channel (the machine-applicable FPPN003 fix); applying exactly
// these calls to the model removes every FPPN003 problem.
//
// Exit status: 0 when the model is clean (or no edges are needed), 1 when
// any finding (or suggested edge) is reported, 2 on invalid usage
// (unknown application, unknown diagnostic code, bad flags).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/staticflow"
)

// exit statuses.
const (
	exitClean    = 0
	exitFindings = 1
	exitUsage    = 2
)

// options carries the parsed command line.
type options struct {
	app       string
	all       bool
	m         int
	json      bool
	sel       string // comma-separated codes to keep (empty = all)
	ign       string // comma-separated codes to drop
	suggestFP bool
}

// buildTarget resolves an application or demo-fixture name.
func buildTarget(name string) (*core.Network, error) {
	if build, ok := lint.Fixtures()[name]; ok {
		return build(), nil
	}
	net, err := apps.Build(name)
	if err != nil {
		return nil, fmt.Errorf("unknown application %q (want %s, or a demo fixture: %s)",
			name, strings.Join(apps.Names(), ", "), strings.Join(lint.FixtureNames(), ", "))
	}
	return net, nil
}

func main() {
	var o options
	flag.StringVar(&o.app, "app", "signal", "application or demo fixture to lint")
	flag.BoolVar(&o.all, "all", false, "lint every registry application (ignores -app)")
	flag.IntVar(&o.m, "m", 2, "processor capacity assumed by the utilization rule")
	flag.BoolVar(&o.json, "json", false, "emit the report as JSON")
	flag.StringVar(&o.sel, "select", "", "comma-separated diagnostic codes to keep (default: all)")
	flag.StringVar(&o.ign, "ignore", "", "comma-separated diagnostic codes to drop")
	flag.BoolVar(&o.suggestFP, "suggest-fp", false, "print the minimal FP completion instead of linting")
	flag.Parse()

	status, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fppnvet:", err)
	}
	os.Exit(status)
}

// parseCodes splits a comma-separated code list and rejects codes absent
// from the rule registry (a filter that can never match is a typo).
func parseCodes(s string) (map[string]bool, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]bool)
	for _, c := range strings.Split(s, ",") {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		if _, ok := lint.RuleFor(c); !ok {
			return nil, fmt.Errorf("unknown diagnostic code %q", c)
		}
		out[c] = true
	}
	return out, nil
}

// filter drops findings outside -select and inside -ignore.
func filter(rep *lint.Report, sel, ign map[string]bool) {
	if sel == nil && ign == nil {
		return
	}
	kept := rep.Findings[:0]
	for _, f := range rep.Findings {
		if sel != nil && !sel[f.Code] {
			continue
		}
		if ign[f.Code] {
			continue
		}
		kept = append(kept, f)
	}
	rep.Findings = kept
}

// run executes one fppnvet invocation and writes the report, returning
// the exit status.
func run(w io.Writer, o options) (int, error) {
	if o.m <= 0 {
		return exitUsage, fmt.Errorf("invalid processor count %d", o.m)
	}
	sel, err := parseCodes(o.sel)
	if err != nil {
		return exitUsage, err
	}
	ign, err := parseCodes(o.ign)
	if err != nil {
		return exitUsage, err
	}
	targets := []string{o.app}
	if o.all {
		targets = apps.Names()
	}
	status := exitClean
	for _, name := range targets {
		net, err := buildTarget(name)
		if err != nil {
			return exitUsage, err
		}
		if o.suggestFP {
			if suggest(w, net) > 0 {
				status = exitFindings
			}
			continue
		}
		rep := lint.Run(net, lint.Options{Processors: o.m})
		filter(rep, sel, ign)
		if o.json {
			text, err := rep.JSON()
			if err != nil {
				return exitUsage, err
			}
			fmt.Fprint(w, text)
		} else {
			fmt.Fprint(w, rep.Text())
		}
		if len(rep.Findings) > 0 {
			status = exitFindings
		}
	}
	return status, nil
}

// suggest prints the minimal FP completion of the network, one
// machine-applicable Priority call per line, and returns the edge count.
func suggest(w io.Writer, net *core.Network) int {
	suggestions := staticflow.SuggestFP(net)
	for _, s := range suggestions {
		fmt.Fprintf(w, "Priority(%q, %q) // covers channel %q\n", s.Hi, s.Lo, s.Channel)
	}
	if len(suggestions) == 0 {
		fmt.Fprintf(w, "%s: FP coverage complete (0 edges needed)\n", net.Name)
	}
	return len(suggestions)
}

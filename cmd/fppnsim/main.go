// Command fppnsim executes an FPPN application under the online
// static-order policy of Section IV: it compiles the app (task graph +
// static schedule), runs the requested number of hyperperiod frames on the
// simulated multiprocessor platform and reports deadline misses, skipped
// server jobs, the execution Gantt chart and the external outputs.
//
// Usage:
//
//	fppnsim -app signal|fft|fft-overhead|fms|fms-original|scale:N [-m N]
//	        [-frames F] [-overhead none|mppa]
//	        [-events "CoefB@0.05,CoefB@0.42"] [-concurrent] [-zerocheck]
//
// Model specs are shared with fppnc and the fppnd daemon (internal/cli):
// registry names plus synthetic "scale:N" networks, each loaded with its
// canonical content digest.
//
// Exit status: 0 on success, 1 on model or runtime errors, 2 on invalid
// usage.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// parseEvents parses "proc@seconds,proc@seconds" specs; seconds accept
// rational or decimal syntax ("0.05", "1/20").
func parseEvents(spec string) (map[string][]plan.Time, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string][]plan.Time)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		i := strings.IndexByte(part, '@')
		if i < 0 {
			return nil, cli.Usagef("bad event %q, want proc@time", part)
		}
		t, err := rational.Parse(part[i+1:])
		if err != nil {
			return nil, cli.Usagef("bad event time in %q: %v", part, err)
		}
		out[part[:i]] = append(out[part[:i]], t)
	}
	return out, nil
}

func main() {
	app := flag.String("app", "signal", "model spec: registry app or scale:N")
	m := flag.Int("m", 2, "number of processors")
	frames := flag.Int("frames", 5, "hyperperiod frames to execute")
	overhead := flag.String("overhead", "none", "runtime overhead model: none, mppa")
	events := flag.String("events", "", "sporadic events, e.g. \"CoefB@0.05,CoefB@0.42\"")
	concurrent := flag.Bool("concurrent", false, "use the goroutine-per-processor runner")
	zerocheck := flag.Bool("zerocheck", true, "verify outputs against the zero-delay semantics")
	width := flag.Int("width", 100, "Gantt chart width")
	flag.Parse()

	if err := run(*app, *m, *frames, *overhead, *events, *concurrent, *zerocheck, *width); err != nil {
		fmt.Fprintln(os.Stderr, "fppnsim:", err)
		os.Exit(cli.ExitCode(err))
	}
}

func run(app string, m, frames int, overheadName, eventSpec string, concurrent, zerocheck bool, width int) error {
	model, err := cli.LoadModel(app)
	if err != nil {
		return err
	}
	var overhead platform.OverheadModel
	switch overheadName {
	case "none":
	case "mppa":
		overhead = platform.MPPAFFTOverhead()
	default:
		return cli.Usagef("unknown overhead model %q", overheadName)
	}
	evs, err := parseEvents(eventSpec)
	if err != nil {
		return err
	}

	fmt.Printf("model %s digest %s\n", model.Name, model.Digest[:12])
	tg, err := taskgraph.Derive(model.Net)
	if err != nil {
		return err
	}
	fmt.Println(tg.Summary())
	s, err := sched.ListSchedule(tg, m, sched.ALAPEDF)
	if err != nil {
		return err
	}
	if err := s.Validate(); err != nil {
		fmt.Printf("note: static schedule infeasible on %d processors (%v); running anyway to observe misses\n", m, err)
	}

	cfg := plan.Config{
		Frames:         frames,
		SporadicEvents: evs,
		Overhead:       overhead,
		Inputs:         model.Inputs(frames),
	}
	// Compile the schedule once; the plan replays all requested frames
	// (and any future re-runs) without re-interning the network. The
	// per-run state lives in a RunState so the plan stays shareable.
	p, err := plan.Compile(s)
	if err != nil {
		return err
	}
	rs := p.NewRunState()
	runFn := rs.Run
	if concurrent {
		runFn = rs.RunConcurrent
	}
	rep, err := runFn(cfg)
	if err != nil {
		return err
	}
	fmt.Println(rep.Summary())
	for i, miss := range rep.Misses {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(rep.Misses)-10)
			break
		}
		fmt.Println("  miss:", miss)
	}
	fmt.Print(rep.Gantt(width))

	// Output summary.
	chans := make([]string, 0, len(rep.Outputs))
	for ch := range rep.Outputs {
		chans = append(chans, ch)
	}
	sort.Strings(chans)
	for _, ch := range chans {
		samples := rep.Outputs[ch]
		fmt.Printf("output %s: %d samples", ch, len(samples))
		for i, smp := range samples {
			if i == 5 {
				fmt.Print(" ...")
				break
			}
			fmt.Printf(" %v", smp.Value)
		}
		fmt.Println()
	}

	if zerocheck {
		// The reference needs a fresh network: LoadModel rebuilds one
		// (same digest, since construction is deterministic).
		refModel, err := cli.LoadModel(app)
		if err != nil {
			return err
		}
		horizon := tg.Hyperperiod.MulInt(int64(frames))
		ref, err := core.RunZeroDelay(refModel.Net, horizon, core.ZeroDelayOptions{
			SporadicEvents: evs,
			Inputs:         refModel.Inputs(frames),
		})
		if err != nil {
			return fmt.Errorf("zero-delay reference: %w", err)
		}
		if core.SamplesEqual(ref.Outputs, rep.Outputs) {
			fmt.Println("determinism check: outputs MATCH the zero-delay semantics")
		} else {
			fmt.Println("determinism check FAILED:", core.DiffSamples(ref.Outputs, rep.Outputs))
		}
	}
	return nil
}

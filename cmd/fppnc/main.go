// Command fppnc is the FPPN "compiler": it derives the task graph of an
// application (Section III-A of the DATE 2015 paper), runs the compile-time
// list scheduler (Section III-B) and prints the resulting static schedule,
// analysis numbers and optional Graphviz exports.
//
// Usage:
//
//	fppnc -app signal|fft|fft-overhead|fms|fms-original|scale:N [-m N] [-vet on|off]
//	      [-heuristic alap-edf|b-level|deadline-monotonic|edf]
//	      [-dot taskgraph] [-gantt] [-table]
//
// A pre-flight vet pass (internal/lint) refuses to compile models with
// error-severity findings unless -vet=off. Exit status: 0 on success, 1 on
// model or compile errors, 2 on invalid usage.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/lint"
	"repro/internal/sched"
	"repro/internal/staticflow"
	"repro/internal/taskgraph"
)

func main() {
	app := flag.String("app", "signal", "model spec: registry app or scale:N")
	m := flag.Int("m", 2, "number of processors")
	heuristic := flag.String("heuristic", "alap-edf", "schedule priority: alap-edf, b-level, deadline-monotonic, edf, portfolio (run all, keep best makespan)")
	dot := flag.String("dot", "", "emit Graphviz for: taskgraph, network")
	gantt := flag.Bool("gantt", true, "print the ASCII Gantt chart")
	table := flag.Bool("table", false, "print the schedule table")
	width := flag.Int("width", 100, "Gantt chart width")
	buffers := flag.Bool("buffers", false, "print FIFO buffer-capacity bounds")
	compare := flag.Bool("compare", false, "print the heuristic ablation table")
	jsonOut := flag.String("json", "", "emit JSON for: network, taskgraph, schedule")
	vet := flag.String("vet", "on", "pre-flight lint: on (refuse to compile on error findings), off")
	flag.Parse()

	if err := run(*app, *m, *heuristic, *vet, *dot, *jsonOut, *gantt, *table, *buffers, *compare, *width); err != nil {
		fmt.Fprintln(os.Stderr, "fppnc:", err)
		os.Exit(cli.ExitCode(err))
	}
}

func run(app string, m int, heuristic, vet, dot, jsonOut string, gantt, table, buffers, compare bool, width int) error {
	model, err := cli.LoadModel(app)
	if err != nil {
		return err
	}
	net := model.Net
	var h sched.Heuristic
	if heuristic != cli.PortfolioName {
		if h, err = cli.ParseHeuristic(heuristic); err != nil {
			return err
		}
	}
	switch vet {
	case "on":
		rep := lint.Run(net, lint.Options{Processors: m})
		if rep.HasErrors() {
			fmt.Fprint(os.Stderr, rep.Text())
			return fmt.Errorf("model %q failed vet with %d error finding(s); fix them or pass -vet=off", net.Name, len(rep.Errors()))
		}
	case "off":
	default:
		return cli.Usagef("invalid -vet value %q (want on or off)", vet)
	}
	if dot == "network" {
		fmt.Println(export.NetworkDOT(net))
		return nil
	}
	if jsonOut == "network" {
		text, err := export.MarshalIndent(export.Network(net))
		if err != nil {
			return err
		}
		fmt.Println(text)
		return nil
	}
	fmt.Printf("application %s (digest %s): %d processes, %d channels\n",
		net.Name, model.Digest[:12], len(net.Processes()), len(net.Channels()))
	for _, p := range net.Processes() {
		fmt.Printf("  %v (C=%vs)\n", p, p.WCET)
	}

	tg, err := taskgraph.Derive(net)
	if err != nil {
		return err
	}
	fmt.Println(tg.Summary())
	if err := tg.CheckSchedulable(m); err != nil {
		fmt.Printf("necessary condition (Prop. 3.1) FAILS on %d processors: %v\n", m, err)
	} else {
		fmt.Printf("necessary condition (Prop. 3.1) holds on %d processors\n", m)
	}
	if dot == "taskgraph" {
		fmt.Println(tg.DOT())
		return nil
	}
	if jsonOut == "taskgraph" {
		text, err := export.MarshalIndent(export.TaskGraph(tg))
		if err != nil {
			return err
		}
		fmt.Println(text)
		return nil
	}
	if buffers {
		rep, err := staticflow.Buffers(net, 3, nil)
		if err != nil {
			return err
		}
		fmt.Println("FIFO buffer bounds (3 hyperperiods, no sporadic events):")
		for _, c := range net.Channels() {
			if c.Kind != core.FIFO {
				continue
			}
			slots, _ := rep.Bound(c.Name)
			fmt.Printf("  %-14s %d slots\n", c.Name, slots)
		}
		if unb := rep.Unbalanced(); len(unb) > 0 {
			fmt.Println("  UNBALANCED channels:", unb)
		}
	}
	if compare {
		stats, err := analysis.CompareHeuristics(tg, m)
		if err != nil {
			return err
		}
		fmt.Print(analysis.Table(stats))
	}

	var s *sched.Schedule
	if heuristic == cli.PortfolioName {
		s, err = sched.Portfolio(tg, m, sched.PortfolioOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("portfolio winner: %v\n", s.Heuristic)
	} else {
		s, err = sched.ListSchedule(tg, m, h)
		if err != nil {
			return err
		}
	}
	if err := s.Validate(); err != nil {
		fmt.Printf("schedule (%v) INFEASIBLE: %v\n", s.Heuristic, err)
		fmt.Printf("  %d deadline misses in the static schedule\n", len(s.Misses()))
	} else {
		fmt.Printf("feasible schedule (%v) on %d processors, makespan %vs\n", s.Heuristic, m, s.Makespan())
	}
	if jsonOut == "schedule" {
		text, err := export.MarshalIndent(export.Schedule(s))
		if err != nil {
			return err
		}
		fmt.Println(text)
		return nil
	}
	if table {
		fmt.Print(s.Table())
	}
	if gantt {
		fmt.Print(s.Gantt(width))
	}
	return nil
}

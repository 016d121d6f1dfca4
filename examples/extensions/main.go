// Extensions demonstrates the three future-work items the DATE 2015 paper
// closes with ("we plan to support buffering and pipelining, as well as
// mixed-critical scheduling"), implemented on top of the core flow:
//
//  1. buffering — FIFO capacity bounds from the static buffer sweep;
//  2. pipelining — a 3-stage software pipeline whose end-to-end latency
//     exceeds its period, schedulable only with overlapping frames;
//  3. mixed criticality — dual LO/HI budgets with runtime mode switching
//     that sheds low-criticality load while high-criticality deadlines
//     keep being met.
package main

import (
	"fmt"
	"log"

	fppn "repro"
)

func main() {
	buffering()
	pipelining()
	mixedCriticality()
}

func buffering() {
	fmt.Println("=== buffering: FIFO capacity bounds ===")
	n := fppn.NewNetwork("buffered")
	n.AddPeriodic("fast", fppn.Ms(100), fppn.Ms(100), fppn.Ms(5),
		fppn.BehaviorFunc(func(ctx *fppn.JobContext) error {
			ctx.Write("q", int(ctx.K()))
			return nil
		}))
	n.AddPeriodic("slow", fppn.Ms(400), fppn.Ms(400), fppn.Ms(5),
		fppn.BehaviorFunc(func(ctx *fppn.JobContext) error {
			for {
				if _, ok := ctx.Read("q"); !ok {
					return nil
				}
			}
		}))
	n.Connect("fast", "slow", "q", fppn.FIFO).Drain() // slow reads until q is empty
	n.Priority("fast", "slow")

	rep, err := fppn.BufferBounds(n, 5, nil)
	if err != nil {
		log.Fatal(err)
	}
	slots, _ := rep.Bound("q")
	fmt.Printf("producer at 100 ms, draining consumer at 400 ms -> channel q needs %d slots\n",
		slots)
	if len(rep.Unbalanced()) == 0 {
		fmt.Println("static rate check: balanced (the consumer drains)")
	}
	fmt.Println()
}

func pipelining() {
	fmt.Println("=== pipelining: 150 ms latency on a 100 ms period ===")
	n := fppn.NewNetwork("pipe")
	var prev string
	for _, name := range []string{"capture", "transform", "emit"} {
		n.AddPeriodic(name, fppn.Ms(100), fppn.Ms(300), fppn.Ms(50), nil)
		if prev != "" {
			n.Connect(prev, name, prev+"->"+name, fppn.FIFO)
			n.Priority(prev, name)
		}
		prev = name
	}

	// Non-pipelined derivation truncates deadlines to H = 100 ms:
	// hopeless for a 150 ms chain.
	flat, err := fppn.DeriveTaskGraph(n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-pipelined necessary condition: %v\n", flat.CheckSchedulable(3))

	// Pipelined: keep the 300 ms deadlines and overlap frames.
	tg, err := fppn.DeriveTaskGraphOpts(n, fppn.DeriveOptions{DeadlineSlack: fppn.Ms(200)})
	if err != nil {
		log.Fatal(err)
	}
	s, err := fppn.PipelineSchedule(tg, 3)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.ValidatePipelined(); err != nil {
		log.Fatal(err)
	}
	rep, err := fppn.Run(s, fppn.RunConfig{Frames: 6, Pipelined: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipelined run: %s\n", rep.Summary())
	fmt.Print(rep.Gantt(96))
	fmt.Println()
}

func mixedCriticality() {
	fmt.Println("=== mixed criticality: budget overrun sheds LO load ===")
	n := fppn.NewNetwork("mc")
	n.AddPeriodic("flightCtl", fppn.Ms(100), fppn.Ms(100), fppn.Ms(10),
		fppn.BehaviorFunc(func(ctx *fppn.JobContext) error {
			ctx.WriteOutput("ctl", int(ctx.K()))
			return nil
		}))
	n.AddPeriodic("telemetry", fppn.Ms(100), fppn.Ms(100), fppn.Ms(15),
		fppn.BehaviorFunc(func(ctx *fppn.JobContext) error {
			ctx.WriteOutput("tm", int(ctx.K()))
			return nil
		}))
	n.Output("flightCtl", "ctl")
	n.Output("telemetry", "tm")

	spec := fppn.MCSpec{
		Levels: map[string]fppn.MCLevel{"flightCtl": fppn.MCHI},
		WCETHi: map[string]fppn.Time{"flightCtl": fppn.Ms(70)},
	}
	mcs, err := fppn.BuildMC(n, spec, 1) // one processor: telemetry queues behind flightCtl
	if err != nil {
		log.Fatal(err)
	}

	// Frame 1: flightCtl blows through its 10 ms optimistic budget.
	overrun := func(j *fppn.Job, frame int) fppn.Time {
		if frame == 1 && j.Proc == "flightCtl" {
			return fppn.Ms(70)
		}
		return j.WCET
	}
	rep, err := fppn.RunMC(mcs, fppn.MCConfig{Frames: 3, Exec: overrun})
	if err != nil {
		log.Fatal(err)
	}
	for _, sw := range rep.Switches {
		fmt.Printf("mode switch in frame %d at %vs (culprit %s)\n", sw.Frame, sw.At, sw.Culprit.Name())
	}
	fmt.Printf("HI deadline misses: %d, dropped LO jobs: %d\n", len(rep.HiMisses), rep.DroppedLO)
	fmt.Printf("flightCtl outputs: %d/3, telemetry outputs: %d/3\n",
		len(rep.Outputs["ctl"]), len(rep.Outputs["tm"]))
}

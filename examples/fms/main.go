// FMS reproduces the avionics experiment of Section V-B: the Fig. 7 Flight
// Management System subsystem (best-computed-position and performance
// prediction, with sporadic pilot configuration commands). It derives the
// 812-job task graph of the reduced 10 s hyperperiod, executes one frame on
// a single processor without deadline misses (load ≈ 0.23), and verifies
// functional equivalence with the legacy uniprocessor fixed-priority
// prototype under rate-monotonic priorities — the paper's "verified by
// testing" claim.
package main

import (
	"fmt"
	"log"

	fppn "repro"
	"repro/internal/apps/fms"
)

func main() {
	// Hyperperiod reduction: 40 s originally, 10 s with MagnDeclin at
	// 400 ms (body executed once per four invocations).
	tgOrig, err := fppn.DeriveTaskGraph(fms.NewConfig(fms.Original()))
	if err != nil {
		log.Fatal(err)
	}
	tg, err := fppn.DeriveTaskGraph(fms.New())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original:  H=%v s, %d jobs, %d edges\n",
		tgOrig.Hyperperiod, len(tgOrig.Jobs), tgOrig.EdgeCount())
	load, err := tg.Load()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reduced:   H=%v s, %d jobs, %d edges, load %.3f (paper: 10 s, 812 jobs, 1977 edges, ~0.23)\n",
		tg.Hyperperiod, len(tg.Jobs), tg.EdgeCount(), load.Float64())

	// Pilot commands for one frame.
	events := map[string][]fppn.Time{
		fms.AnemoConfig:       {fppn.Ms(40), fppn.Ms(2300)},
		fms.GPSConfig:         {fppn.Ms(440)},
		fms.BCPConfig:         {fppn.Ms(700)},
		fms.MagnDeclinConfig:  {fppn.Ms(100), fppn.Ms(1500)},
		fms.PerformanceConfig: {fppn.Ms(600)},
	}
	inputs := fms.Inputs(50)

	// Single-processor execution: no deadline misses at load 0.23.
	s1, err := fppn.FindFeasible(tg, 1)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := fppn.Run(s1, fppn.RunConfig{Frames: 1, Inputs: inputs, SporadicEvents: events})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nuniprocessor run: %s\n", rep.Summary())
	bcp := rep.Outputs[fms.ExtBCP]
	fmt.Printf("BCP samples: %d; first values:", len(bcp))
	for i := 0; i < 4 && i < len(bcp); i++ {
		fmt.Printf(" %.3f", bcp[i].Value.(float64))
	}
	fmt.Println()

	// Multiprocessor mappings stay deterministic.
	for _, m := range []int{2, 4} {
		sm, err := fppn.FindFeasible(tg, m)
		if err != nil {
			log.Fatal(err)
		}
		repM, err := fppn.Run(sm, fppn.RunConfig{Frames: 1, Inputs: inputs, SporadicEvents: events})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("M=%d: %d misses, outputs equal uniprocessor run: %v\n",
			m, len(repM.Misses), fppn.OutputsEqual(rep.Outputs, repM.Outputs))
	}

	// Functional equivalence with the legacy uniprocessor prototype:
	// rate-monotonic scheduling priorities are consistent with the
	// functional priorities, so the two systems agree value-for-value.
	pr := fppn.RateMonotonic(fms.New())
	if err := fppn.PriorityConsistent(fms.New(), pr); err != nil {
		log.Fatal(err)
	}
	legacy, err := fppn.RunUniprocessor(fms.New(), fppn.Seconds(10), pr, events, inputs)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := fppn.RunZeroDelay(fms.New(), fppn.Seconds(10), fppn.ZeroDelayOptions{
		SporadicEvents: events, Inputs: inputs,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlegacy fixed-priority prototype == FPPN zero-delay: %v\n",
		fppn.OutputsEqual(legacy.Outputs, ref.Outputs))
	fmt.Printf("FPPN multiprocessor runtime == FPPN zero-delay:     %v\n",
		fppn.OutputsEqual(rep.Outputs, ref.Outputs))
}

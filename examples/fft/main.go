// FFT reproduces the streaming experiment of Section V-A: the Fig. 5
// four-point FFT network (14 processes, task graph mapping 1:1 onto the
// process network) executed with the Kalray MPPA runtime overheads
// (41 ms first frame, 20 ms after). A single-processor mapping misses
// deadlines once the overhead is accounted for (modelled load ≈ 1.2); a
// two-processor mapping meets every deadline — the Fig. 6 result.
package main

import (
	"fmt"
	"log"

	fppn "repro"
	"repro/internal/apps/fft"
)

func main() {
	net := fft.New()
	tg, err := fppn.DeriveTaskGraph(net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig. 5 FFT: %d processes, task graph %s\n", len(net.Processes()), tg.Summary())

	tgOverhead, err := fppn.DeriveTaskGraph(fft.NewWithOverheadJob())
	if err != nil {
		log.Fatal(err)
	}
	load, err := tg.Load()
	if err != nil {
		log.Fatal(err)
	}
	loadOverhead, err := tgOverhead.Load()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("load without overhead job: %.3f; with 41 ms overhead job: %.3f (paper: 0.93 and ~1.2)\n",
		load.Float64(), loadOverhead.Float64())

	// Ten input frames with known spectra.
	frames := make([]fft.Frame, 10)
	for i := range frames {
		frames[i] = fft.Frame{complex(float64(i+1), 0), 1, -1, complex(0, 1)}
	}
	inputs := fft.Inputs(frames)
	overhead := fppn.MPPAFFTOverhead()

	for _, m := range []int{1, 2} {
		s, err := fppn.ListSchedule(tg, m, fppn.ALAPEDF)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := fppn.Run(s, fppn.RunConfig{
			Frames:   len(frames),
			Overhead: overhead,
			Inputs:   inputs,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nM=%d with MPPA overhead: %s\n", m, rep.Summary())
		if len(rep.Misses) > 0 {
			fmt.Printf("  first miss: %v\n", rep.Misses[0])
		}
		if m == 2 {
			fmt.Println("  Gantt chart (cf. Fig. 6, first two frames):")
			fmt.Print(rep.Gantt(110))
		}
		// The spectra are correct regardless of mapping and overhead.
		ok := true
		for i, in := range frames {
			want := fft.DFT(in)
			got := rep.Outputs[fft.ExtOut][i].Value.(fft.Frame)
			for k := 0; k < fft.N; k++ {
				d := got[k] - want[k]
				if real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
					ok = false
				}
			}
		}
		fmt.Printf("  all %d spectra equal the reference DFT: %v\n", len(frames), ok)
	}
}

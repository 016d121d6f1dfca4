package lint

import (
	"testing"

	"repro/internal/apps"
)

// BenchmarkRunFMS measures one full lint pass over the largest example
// application (the 12-process avionics FMS); EXPERIMENTS.md records the
// result.
func BenchmarkRunFMS(b *testing.B) {
	net, err := apps.Build("fms")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := Run(net, Options{}); rep.HasErrors() {
			b.Fatal("fms must lint clean")
		}
	}
}

// benchReport keeps BenchmarkLintRun's result live.
var benchReport *Report

// BenchmarkLintRun measures one full lint pass at M=2 on the applications
// whose frames are small enough for the derive-based rules (signal, fft)
// and on fms, where those rules skip; lint derives, analyzes and verifies
// everything itself here, as fppnvet and fppnc run it.
func BenchmarkLintRun(b *testing.B) {
	for _, app := range []string{"signal", "fft", "fms"} {
		net, err := apps.Build(app)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(app, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchReport = Run(net, Options{Processors: 2})
			}
		})
	}
}

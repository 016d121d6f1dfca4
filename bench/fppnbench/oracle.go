package main

import (
	"encoding/json"
	"fmt"
	"maps"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/rational"
	"repro/internal/serve"
	"repro/internal/taskgraph"
)

// oracle holds what correct responses must contain, computed before any
// server starts. Output sample counts come from core.RunZeroDelay, the
// zero-delay interpreter of Proposition 2.1, which shares no code with
// the compiled plan.Run the server replays.
type oracle struct {
	// jobs is the job count of one frame, per app.
	jobs map[string]int
	// outputs is the per-channel sample count of a run, per app and
	// frame count.
	outputs map[string]map[int]map[string]int
}

func newOracle(w *workload) (*oracle, error) {
	o := &oracle{jobs: make(map[string]int), outputs: make(map[string]map[int]map[string]int)}
	for _, app := range w.apps() {
		model, err := cli.LoadModel(app)
		if err != nil {
			return nil, err
		}
		tg, err := taskgraph.Derive(model.Net)
		if err != nil {
			return nil, fmt.Errorf("derive %s: %w", app, err)
		}
		o.jobs[app] = len(tg.Jobs)
		o.outputs[app] = make(map[int]map[string]int)
		for _, v := range w.variants {
			if v.App != app || v.Path != "/simulate" || o.outputs[app][v.Frames] != nil {
				continue
			}
			horizon := tg.Hyperperiod.Mul(rational.FromInt(int64(v.Frames)))
			res, err := core.RunZeroDelay(model.Net, horizon, core.ZeroDelayOptions{
				Inputs: model.Inputs(v.Frames),
				Seed:   -1,
			})
			if err != nil {
				return nil, fmt.Errorf("zero-delay run of %s over %d frames: %w", app, v.Frames, err)
			}
			counts := make(map[string]int, len(res.Outputs))
			for ch, samples := range res.Outputs {
				counts[ch] = len(samples)
			}
			o.outputs[app][v.Frames] = counts
		}
	}
	return o, nil
}

// check validates the first body served for a variant. Every later body
// of the variant must equal it byte for byte, so only this one is
// decoded.
func (o *oracle) check(v *variant, body []byte, wantCached bool) error {
	if v.Path == "/analyze" {
		return checkAnalyze(v, body, wantCached)
	}
	var r serve.SimulateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%v: decode: %w", v, err)
	}
	switch {
	case r.App != v.App || r.M != v.M || r.Frames != v.Frames:
		return fmt.Errorf("%v: response echoes app %s m=%d frames=%d", v, r.App, r.M, r.Frames)
	case r.Cached != wantCached:
		return fmt.Errorf("%v: cached=%v, want %v", v, r.Cached, wantCached)
	case !maps.Equal(r.Outputs, o.outputs[v.App][v.Frames]):
		return fmt.Errorf("%v: output sample counts %v, zero-delay semantics gives %v",
			v, r.Outputs, o.outputs[v.App][v.Frames])
	case r.Feasible && r.Misses != 0:
		return fmt.Errorf("%v: feasible schedule missed %d deadlines", v, r.Misses)
	case v.App == "fft-overhead" && v.M == 1 && r.Misses == 0:
		return fmt.Errorf("%v: fft-overhead on one processor reported no deadline miss", v)
	case v.Heuristic != cli.PortfolioName && r.Heuristic != v.Heuristic:
		return fmt.Errorf("%v: scheduled with %s", v, r.Heuristic)
	}
	return nil
}

func checkAnalyze(v *variant, body []byte, wantCached bool) error {
	var r serve.AnalyzeResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%v: decode: %w", v, err)
	}
	switch {
	case r.App != v.App || r.M != v.M:
		return fmt.Errorf("%v: response echoes app %s m=%d", v, r.App, r.M)
	case r.Cached != wantCached:
		return fmt.Errorf("%v: cached=%v, want %v", v, r.Cached, wantCached)
	case r.Lint.Errors != 0:
		return fmt.Errorf("%v: %d lint errors", v, r.Lint.Errors)
	case !r.Determinism.RaceFree:
		return fmt.Errorf("%v: happens-before verdict is not race-free: %s", v, r.Determinism.Witness)
	}
	return nil
}

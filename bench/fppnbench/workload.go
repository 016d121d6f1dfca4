package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// variant is one distinct request a workload can send. The request
// streams are sequences of indices into a workload's variants, so a
// client never encodes JSON inside the measured window.
type variant struct {
	Path       string `json:"-"`
	App        string `json:"app"`
	M          int    `json:"m"`
	Heuristic  string `json:"heuristic"`
	Frames     int    `json:"frames,omitempty"`
	Concurrent bool   `json:"concurrent,omitempty"`

	body []byte
}

// compileKey names the cached pipeline a variant resolves to.
func (v *variant) compileKey() string {
	return fmt.Sprintf("%s m=%d %s", v.App, v.M, v.Heuristic)
}

func (v *variant) String() string {
	s := fmt.Sprintf("POST %s %s frames=%d", v.Path, v.compileKey(), v.Frames)
	if v.Concurrent {
		s += " concurrent"
	}
	return s
}

// workload is one traffic mix against fppnd. BENCHMARK.json and
// bench/README.md say why each was chosen.
type workload struct {
	name string
	// cold workloads give each client its own server and walk a seeded
	// permutation of the variants per pass, replacing the server at the
	// end of every pass so that each request misses the cache. Warm
	// workloads share one server whose cache the set-up has filled.
	cold     bool
	variants []variant
	// pick draws the next variant of a warm workload.
	pick func(*rand.Rand) int
}

func (w *workload) add(v variant) {
	if v.Path == "" {
		v.Path = "/simulate"
	}
	body, err := json.Marshal(&v)
	if err != nil {
		panic(err) // a variant is plain data; marshalling cannot fail
	}
	v.body = body
	w.variants = append(w.variants, v)
}

// compileKeys returns the distinct pipelines of the workload's variants,
// as the index of the first variant of each, in variant order.
func (w *workload) compileKeys() []int {
	seen := make(map[string]bool)
	var out []int
	for i := range w.variants {
		k := w.variants[i].compileKey()
		if !seen[k] {
			seen[k] = true
			out = append(out, i)
		}
	}
	return out
}

// apps returns the distinct applications of the variants, in order.
func (w *workload) apps() []string {
	seen := make(map[string]bool)
	var out []string
	for _, v := range w.variants {
		if !seen[v.App] {
			seen[v.App] = true
			out = append(out, v.App)
		}
	}
	return out
}

var workloads = []*workload{
	simulateWarmApps(),
	simulateWarmScale(),
	compileCold(),
	analyzeWarm(),
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func simulateWarmApps() *workload {
	w := &workload{name: "simulate-warm-apps"}
	apps := []string{"signal", "fft", "fms"}
	const maxFrames = 4
	for _, app := range apps {
		for f := 1; f <= maxFrames; f++ {
			for _, conc := range []bool{false, true} {
				w.add(variant{App: app, M: 2, Heuristic: "alap-edf", Frames: f, Concurrent: conc})
			}
		}
	}
	// The index follows the loop nest above: app, frames, concurrent.
	w.pick = func(r *rand.Rand) int {
		app, f, conc := r.Intn(len(apps)), r.Intn(maxFrames), 0
		if r.Intn(4) == 0 {
			conc = 1
		}
		return (app*maxFrames+f)*2 + conc
	}
	return w
}

func simulateWarmScale() *workload {
	w := &workload{name: "simulate-warm-scale"}
	// nettest.Scale is sized for half the capacity of 8 processors.
	for _, f := range []int{1, 2, 4} {
		w.add(variant{App: "scale:10k", M: 8, Heuristic: "alap-edf", Frames: f})
	}
	w.pick = func(r *rand.Rand) int { return r.Intn(len(w.variants)) }
	return w
}

func compileCold() *workload {
	w := &workload{name: "compile-cold", cold: true}
	heuristics := []string{"alap-edf", "b-level", "deadline-monotonic", "edf", "portfolio"}
	for _, app := range []string{"signal", "fft", "fft-overhead", "fms", "fms-original"} {
		for m := 1; m <= 8; m++ {
			for _, h := range heuristics {
				// At M=1 the portfolio finds no schedule for some apps
				// and answers 422.
				if h == "portfolio" && m == 1 {
					continue
				}
				w.add(variant{App: app, M: m, Heuristic: h, Frames: 1})
			}
		}
	}
	return w
}

func analyzeWarm() *workload {
	w := &workload{name: "analyze-warm"}
	for _, app := range []string{"signal", "fft", "fms"} {
		for _, m := range []int{1, 2, 4} {
			w.add(variant{Path: "/analyze", App: app, M: m, Heuristic: "alap-edf"})
		}
	}
	w.pick = func(r *rand.Rand) int { return r.Intn(len(w.variants)) }
	return w
}

// Stream identities: each seeded stream of a run draws from its own
// generator, so adding a traced run does not shift the measured one.
const (
	streamSetup = 100
	streamTrace = 200
)

// stream is one client's seeded request sequence.
type stream struct {
	w    *workload
	rng  *rand.Rand
	perm []int
	pos  int
}

func newStream(w *workload, seed int64, id int) *stream {
	return &stream{w: w, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(id)))}
}

// next returns the index of the next variant. On a cold workload,
// passEnd reports that it was the last request of the current pass.
func (s *stream) next() (i int, passEnd bool) {
	if !s.w.cold {
		return s.w.pick(s.rng), false
	}
	if s.pos == len(s.perm) {
		s.perm = s.rng.Perm(len(s.w.variants))
		s.pos = 0
	}
	i = s.perm[s.pos]
	s.pos++
	return i, s.pos == len(s.perm)
}

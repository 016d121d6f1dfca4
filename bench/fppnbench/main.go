// Command fppnbench is the end-to-end benchmark of fppnd, the compile and
// simulate service of internal/serve. It runs one workload (a traffic
// mix) against an in-process server with the default options behind a
// loopback listener, driven by a closed loop of two clients, and checks
// every reply.
//
// Usage:
//
//	fppnbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics of a --seconds window.
// With --trace 1 the closed loop gets three quarters of the time and a
// traced run with one client the rest; it prints the per-layer metrics.
// Each metric is printed as "workload metric value unit", and the last
// line is one JSON object with the keys correct, attempted, failed and
// metrics. bench/README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// setups is how many times a run sets the workload up; setup_s is the
// median.
const setups = 5

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the request streams")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1: add the traced run and print per-layer metrics")
	flag.Parse()

	w := workloadNamed(*name)
	if w == nil || *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: fppnbench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	cfg := config{setups: setups, window: time.Duration(*seconds) * time.Second}
	if *traceFlag == 1 {
		cfg.traceWindow = cfg.window / 4
		cfg.window -= cfg.traceWindow
	}
	fmt.Printf("# fppnbench workload=%s seed=%d window=%v trace-window=%v clients=%d nproc=%d gomaxprocs=%d %s\n",
		w.name, *seed, cfg.window, cfg.traceWindow, clients, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	res, err := run(w, *seed, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fppnbench:", err)
		os.Exit(1)
	}
	if res.m.firstErr != nil {
		fmt.Fprintln(os.Stderr, "fppnbench: first failed request:", res.m.firstErr)
	}
	metrics := res.endToEnd()
	if res.trace != nil {
		metrics = res.perLayer()
	}
	if err := report(os.Stdout, w.name, res, metrics); err != nil {
		fmt.Fprintln(os.Stderr, "fppnbench:", err)
		os.Exit(1)
	}
}

// config fixes the shape of one run.
type config struct {
	setups      int
	window      time.Duration
	traceWindow time.Duration // 0: no traced run
}

// bench is one run of one workload.
type bench struct {
	w    *workload
	seed int64
	or   *oracle
	// refs holds each variant's reference body: the first one served,
	// checked against the oracle.
	refs [][]byte
	// warm and conns are a warm workload's server and client
	// connections, kept from the last set-up.
	warm  *target
	conns []*conn
}

type result struct {
	setup []time.Duration
	m     *measured
	trace *tracer
	sizes sizes
}

func run(w *workload, seed int64, cfg config) (*result, error) {
	or, err := newOracle(w)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	b := &bench{w: w, seed: seed, or: or}
	defer b.close()
	res := &result{}
	for rep := 0; rep < cfg.setups; rep++ {
		d, err := b.setup(rep, rep == cfg.setups-1)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep+1, err)
		}
		res.setup = append(res.setup, d)
	}
	res.sizes = b.sizes()
	res.m = b.measure(cfg.window)
	if cfg.traceWindow > 0 {
		if res.trace, err = b.trace(cfg.traceWindow); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return res, nil
}

func (b *bench) close() {
	for _, cn := range b.conns {
		cn.close()
	}
	if b.warm != nil {
		b.warm.close()
	}
}

// setup starts the workload's server(s) and sends the warm-up requests.
// Only that is timed; checking the replies against the oracle is not.
// The last set-up of a warm workload keeps its server for the window.
func (b *bench) setup(rep int, keep bool) (time.Duration, error) {
	runtime.GC()
	if b.w.cold {
		start := time.Now()
		targets, bodies, err := b.coldSetup(rep)
		d := time.Since(start)
		for _, t := range targets {
			if t != nil {
				t.close()
			}
		}
		for c := 0; err == nil && c < clients; c++ {
			err = b.adopt(bodies[c], false)
		}
		return d, err
	}
	start := time.Now()
	t, conns, bodies, err := b.warmSetup()
	d := time.Since(start)
	if err == nil {
		err = b.adopt(bodies, true)
	}
	if err != nil || !keep {
		for _, cn := range conns {
			cn.close()
		}
		t.close()
		return d, err
	}
	b.warm, b.conns = t, conns
	return d, nil
}

// warmSetup compiles every key of the workload with /compile, then sends
// each variant once, so that the window sees only cache hits and warm
// pooled run states.
func (b *bench) warmSetup() (*target, []*conn, [][]byte, error) {
	t := newTarget(serve.Options{})
	conns := make([]*conn, clients)
	for c := range conns {
		conns[c] = dial(t)
	}
	vs := b.w.variants
	for n, i := range b.w.compileKeys() {
		status, body, err := conns[n%clients].post("/compile", vs[i].body)
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		if err != nil {
			return t, conns, nil, fmt.Errorf("compile %s: %w", vs[i].compileKey(), err)
		}
	}
	bodies := make([][]byte, len(vs))
	for i := range vs {
		status, body, err := conns[i%clients].post(vs[i].Path, vs[i].body)
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		if err != nil {
			return t, conns, nil, fmt.Errorf("%v: %w", &vs[i], err)
		}
		bodies[i] = bytes.Clone(body)
	}
	return t, conns, bodies, nil
}

// coldSetup has each client walk one seeded pass of the grid on a fresh
// server of its own.
func (b *bench) coldSetup(rep int) ([]*target, [][][]byte, error) {
	targets := make([]*target, clients)
	bodies := make([][][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) { // fppnlint:ignore -- closed-loop benchmark clients
			defer wg.Done()
			t, cn, err := freshTarget(serve.Options{})
			if err != nil {
				errs[c] = err
				return
			}
			defer cn.close()
			targets[c] = t
			bodies[c] = make([][]byte, len(b.w.variants))
			st := newStream(b.w, b.seed, streamSetup+rep*clients+c)
			for end := false; !end; {
				var i int
				i, end = st.next()
				v := &b.w.variants[i]
				status, body, err := cn.post(v.Path, v.body)
				if err == nil && status != 200 {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
				}
				if err != nil {
					errs[c] = fmt.Errorf("%v: %w", v, err)
					return
				}
				bodies[c][i] = bytes.Clone(body)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return targets, nil, err
		}
	}
	return targets, bodies, nil
}

// adopt checks one set-up's replies. The first set-up's replies are
// checked against the oracle and become the references; every later one
// must equal them byte for byte, as must the replies of variants that
// differ only in the runner (sequential or concurrent).
func (b *bench) adopt(bodies [][]byte, wantCached bool) error {
	vs := b.w.variants
	if b.refs != nil {
		for i := range vs {
			if !bytes.Equal(bodies[i], b.refs[i]) {
				return fmt.Errorf("%v: reply differs from the first set-up's:\n%s\nfirst:\n%s", &vs[i], bodies[i], b.refs[i])
			}
		}
		return nil
	}
	first := make(map[string][]byte)
	for i := range vs {
		v := &vs[i]
		if err := b.or.check(v, bodies[i], wantCached); err != nil {
			return err
		}
		k := fmt.Sprintf("%s %s frames=%d", v.Path, v.compileKey(), v.Frames)
		if f, ok := first[k]; ok && !bytes.Equal(f, bodies[i]) {
			return fmt.Errorf("%v: reply differs from the sequential run's:\n%s\nsequential:\n%s", v, bodies[i], f)
		}
		first[k] = bodies[i]
	}
	b.refs = bodies
	return nil
}

// sizes are the workload's work sizes. They depend only on the models
// and the pipeline's semantics, so a change that moves them changed what
// is computed, not how fast.
type sizes struct {
	jobs     float64 // mean jobs per frame over the variants
	entries  float64 // mean executed plan entries over the /simulate variants
	feasible float64 // share of the compile keys with a feasible schedule
}

func (b *bench) sizes() sizes {
	var s sizes
	vs := b.w.variants
	sims := 0
	for i := range vs {
		s.jobs += float64(b.or.jobs[vs[i].App])
		var r struct{ Entries int }
		if vs[i].Path == "/simulate" && json.Unmarshal(b.refs[i], &r) == nil {
			s.entries += float64(r.Entries)
			sims++
		}
	}
	s.jobs /= float64(len(vs))
	if sims > 0 {
		s.entries /= float64(sims)
	}
	keys := b.w.compileKeys()
	for _, i := range keys {
		var r struct{ Feasible bool }
		if json.Unmarshal(b.refs[i], &r) == nil && r.Feasible {
			s.feasible++
		}
	}
	s.feasible /= float64(len(keys))
	return s
}

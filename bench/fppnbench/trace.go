package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/hb"
	"repro/internal/lint"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/taskgraph"
)

// span names one timed call of the traced run.
type span int

const (
	spLoad span = iota
	spDerive
	spSchedule
	spValidate
	spCompile
	spStateNew
	spRun
	spRunConcurrent
	spLint
	spFeas
	spHB
	spEncode
	// The spans above are the stages of a request; the two below
	// enclose them.
	spHandler
	spRoundtrip
	numSpans
)

var spanNames = [numSpans]string{
	"cli.load", "taskgraph.derive", "sched.schedule", "sched.validate", "plan.compile",
	"plan.state_new", "plan.run", "plan.run_concurrent", "lint.run", "feas.analyze",
	"hb.verify", "serve.encode", "serve.handler", "http.roundtrip",
}

// spanSet holds one traced request's span durations.
type spanSet struct {
	d    [numSpans]time.Duration
	seen [numSpans]bool
}

// keepMin folds another execution of the same request in, keeping the
// fastest reading of every span it has.
func (s *spanSet) keepMin(o *spanSet) {
	for sp := range o.d {
		if o.seen[sp] && (!s.seen[sp] || o.d[sp] < s.d[sp]) {
			s.d[sp], s.seen[sp] = o.d[sp], true
		}
	}
}

func (s *spanSet) stages() time.Duration {
	var sum time.Duration
	for sp := span(0); sp < spHandler; sp++ {
		sum += s.d[sp]
	}
	return sum
}

func (s *spanSet) String() string {
	var b strings.Builder
	for sp, name := range spanNames {
		if s.seen[sp] {
			fmt.Fprintf(&b, "  %-20s %10.1f us\n", name, micros(s.d[sp]))
		}
	}
	return b.String()
}

// traceReps is how often a traced request runs each of its spans.
const traceReps = 3

// A request's stages are timed apart from its handler, so on a shared
// machine their sum can exceed the handler span by timing noise, by up to
// half of it in runs seen so far. More than this means the trace counted
// work that the handler did not do, such as a compile on a cache hit.
const (
	stageSlackRatio = 1.0
	stageSlack      = 100 * time.Microsecond
)

// tracer records spans around the public call of each layer. Spans are
// kept in memory and summarized when the traced run ends.
type tracer struct {
	allocs [numSpans]uint64
	calls  [numSpans]int
	reqs   []spanSet
	// compared and matched count the stage-by-stage results checked
	// against the handler's response.
	compared, matched int
	sample            []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{sample: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}}
}

func (t *tracer) objects() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64() + t.sample[1].Value.Uint64()
}

// do times fn as one call of span sp of the request cur. Calls with a nil
// cur belong to the set-up and are not recorded.
func (t *tracer) do(sp span, cur *spanSet, fn func()) {
	if cur == nil {
		fn()
		return
	}
	a0 := t.objects()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.allocs[sp] += t.objects() - a0
	t.calls[sp]++
	cur.d[sp] += d
	cur.seen[sp] = true
}

func (t *tracer) roundtrip(cn *conn, v *variant, ref []byte, cur *spanSet) error {
	var status int
	var body []byte
	var err error
	t.do(spRoundtrip, cur, func() { status, body, err = cn.post(v.Path, v.body) })
	if err != nil {
		return fmt.Errorf("%v: %w", v, err)
	}
	return checkReply(v, status, body, ref)
}

func (t *tracer) handler(h http.Handler, v *variant, cur *spanSet) ([]byte, error) {
	req := httptest.NewRequest(http.MethodPost, v.Path, bytes.NewReader(v.body))
	rec := httptest.NewRecorder()
	t.do(spHandler, cur, func() { h.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%v: handler status %d: %s", v, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// compare checks one stage-by-stage result against the handler's body.
func (t *tracer) compare(v *variant, handler, stages []byte) error {
	t.compared++
	if !bytes.Equal(handler, stages) {
		return fmt.Errorf("traced request %d (%v): the stage-by-stage result differs from the handler's response\nhandler:\n%s\nstages:\n%s",
			len(t.reqs), v, handler, stages)
	}
	t.matched++
	return nil
}

// finish checks a traced request's spans and keeps them.
func (t *tracer) finish(v *variant, s *spanSet) error {
	h := s.d[spHandler]
	if st := s.stages(); st > time.Duration(float64(h)*(1+stageSlackRatio))+stageSlack {
		return fmt.Errorf("traced request %d (%v): stage spans sum to %.1f us, more than the handler's %.1f us\n%s",
			len(t.reqs), v, micros(st), micros(h), s)
	}
	t.reqs = append(t.reqs, *s)
	return nil
}

// pipeline does what the server does for a request, one layer at a time,
// through the same public calls, so that each call can be a span.
type pipeline struct {
	tr      *tracer
	models  map[string]*cli.Model
	entries map[string]*stageEntry
	buf     bytes.Buffer
}

// stageEntry mirrors the server's cache entry of one compiled pipeline.
type stageEntry struct {
	model    *cli.Model
	tg       *taskgraph.TaskGraph
	sch      *sched.Schedule
	plan     *plan.Plan
	feasible bool
	states   map[int]*plan.RunState
	inputs   map[int]map[string][]core.Value
}

func newPipeline(tr *tracer) *pipeline {
	return &pipeline{tr: tr, models: make(map[string]*cli.Model), entries: make(map[string]*stageEntry)}
}

// compile runs the cold path: load (unless the model is cached), derive,
// schedule, validate and compile.
func (p *pipeline) compile(v *variant, cur *spanSet) (*stageEntry, error) {
	e := &stageEntry{states: make(map[int]*plan.RunState), inputs: make(map[int]map[string][]core.Value)}
	var err error
	e.model = p.models[v.App]
	if e.model == nil {
		p.tr.do(spLoad, cur, func() { e.model, err = cli.LoadModel(v.App) })
		if err != nil {
			return nil, err
		}
	}
	p.tr.do(spDerive, cur, func() { e.tg, err = taskgraph.DeriveOpts(e.model.Net, taskgraph.Options{}) })
	if err != nil {
		return nil, fmt.Errorf("derive %s: %w", v.App, err)
	}
	if v.Heuristic == cli.PortfolioName {
		p.tr.do(spSchedule, cur, func() { e.sch, err = sched.Portfolio(e.tg, v.M, sched.PortfolioOptions{}) })
	} else {
		h, herr := cli.ParseHeuristic(v.Heuristic)
		if herr != nil {
			return nil, herr
		}
		p.tr.do(spSchedule, cur, func() { e.sch, err = sched.ListSchedule(e.tg, v.M, h) })
	}
	if err != nil {
		return nil, fmt.Errorf("schedule %v: %w", v, err)
	}
	p.tr.do(spValidate, cur, func() { e.feasible = e.sch.Validate() == nil })
	p.tr.do(spCompile, cur, func() { e.plan, err = plan.Compile(e.sch) })
	if err != nil {
		return nil, fmt.Errorf("compile %v: %w", v, err)
	}
	return e, nil
}

// serve answers the request from a compiled entry and returns the encoded
// response, which aliases the pipeline's buffer.
func (p *pipeline) serve(v *variant, e *stageEntry, cached bool, cur *spanSet) ([]byte, error) {
	var resp any
	var err error
	if v.Path == "/analyze" {
		resp = p.analyze(v, e, cached, cur)
	} else if resp, err = p.simulate(v, e, cached, cur); err != nil {
		return nil, err
	}
	p.buf.Reset()
	p.tr.do(spEncode, cur, func() {
		enc := json.NewEncoder(&p.buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(resp)
	})
	return p.buf.Bytes(), err
}

func (p *pipeline) simulate(v *variant, e *stageEntry, cached bool, cur *spanSet) (*serve.SimulateResponse, error) {
	rs := e.states[v.Frames]
	if rs == nil {
		p.tr.do(spStateNew, cur, func() { rs = e.plan.NewRunState() })
		e.states[v.Frames] = rs
	}
	in := e.inputs[v.Frames]
	if in == nil {
		in = e.model.Inputs(v.Frames)
		e.inputs[v.Frames] = in
	}
	return p.replay(v, e, rs, plan.Config{Frames: v.Frames, Inputs: in}, cached, cur)
}

// replay runs the plan on a state it holds for the call, and copies the
// response out of the report before the state is released.
func (p *pipeline) replay(v *variant, e *stageEntry, rs *plan.RunState, cfg plan.Config, cached bool, cur *spanSet) (*serve.SimulateResponse, error) {
	rs.Acquire()
	defer rs.Release()
	var rep *plan.Report
	var err error
	if v.Concurrent {
		p.tr.do(spRunConcurrent, cur, func() { rep, err = rs.RunConcurrent(cfg) })
	} else {
		p.tr.do(spRun, cur, func() { rep, err = rs.Run(cfg) })
	}
	if err != nil {
		return nil, fmt.Errorf("run %v: %w", v, err)
	}
	resp := &serve.SimulateResponse{
		App:         v.App,
		Digest:      e.model.Digest,
		M:           v.M,
		Heuristic:   e.sch.Heuristic.String(),
		Frames:      v.Frames,
		Cached:      cached,
		Feasible:    e.feasible,
		Entries:     len(rep.Entries),
		Misses:      len(rep.Misses),
		Skipped:     len(rep.Skipped),
		Makespan:    rep.Makespan.String(),
		MaxLateness: rep.MaxLateness.String(),
		Outputs:     make(map[string]int, len(rep.Outputs)),
	}
	for ch, samples := range rep.Outputs {
		resp.Outputs[ch] = len(samples)
	}
	return resp, nil
}

func (p *pipeline) analyze(v *variant, e *stageEntry, cached bool, cur *spanSet) *serve.AnalyzeResponse {
	resp := &serve.AnalyzeResponse{
		App:       v.App,
		Digest:    e.model.Digest,
		M:         v.M,
		Heuristic: e.sch.Heuristic.String(),
		Feasible:  e.feasible,
		Cached:    cached,
	}
	var lrep *lint.Report
	p.tr.do(spLint, cur, func() { lrep = lint.Run(e.model.Net, lint.Options{Processors: v.M}) })
	resp.Lint = serve.LintSection{
		Errors:   len(lrep.Errors()),
		Warnings: len(lrep.Warnings()),
		Findings: lrep.Findings,
	}

	var frep *feas.Report
	var ferr error
	p.tr.do(spFeas, cur, func() { frep, ferr = feas.Analyze(e.tg, v.M, feas.Options{}) })
	if ferr != nil {
		resp.Schedulability.Skipped = ferr.Error()
	} else {
		resp.Schedulability.Verdict = frep.Verdict().String()
		for _, res := range frep.Results {
			resp.Schedulability.Results = append(resp.Schedulability.Results, serve.FeasResultJSON{
				Test:      res.Test.String(),
				Verdict:   res.Verdict.String(),
				Certified: res.Certified,
				Reason:    res.Reason,
			})
		}
	}

	var hv hb.Verdict
	p.tr.do(spHB, cur, func() { hv = hb.Verify(e.plan) })
	resp.Determinism = serve.HBSection{RaceFree: hv.RaceFree, Pairs: hv.Pairs, Frames: hv.Frames}
	if hv.Witness != nil {
		resp.Determinism.Witness = hv.Witness.String()
	}
	return resp
}

// trace runs the traced pass of the workload with one client. The
// measured window is over, so nothing else competes with it.
func (b *bench) trace(window time.Duration) (*tracer, error) {
	if b.w.cold {
		return b.traceCold(window)
	}
	return b.traceWarm(window)
}

// traceWarm compiles the workload's keys once with the same public calls
// the server uses, and runs every variant once (neither is recorded),
// then traces requests against the warm server.
func (b *bench) traceWarm(window time.Duration) (*tracer, error) {
	tr := newTracer()
	p := newPipeline(tr)
	vs := b.w.variants
	for _, i := range b.w.compileKeys() {
		e, err := p.compile(&vs[i], nil)
		if err != nil {
			return nil, err
		}
		p.models[vs[i].App] = e.model
		p.entries[vs[i].compileKey()] = e
	}
	for i := range vs {
		if _, err := p.serve(&vs[i], p.entries[vs[i].compileKey()], true, nil); err != nil {
			return nil, err
		}
	}

	cn := dial(b.warm)
	defer cn.close()
	var r replicas
	for k := 0; k < traceReps; k++ {
		r.conns = append(r.conns, cn)
		r.handlers = append(r.handlers, b.warm.srv)
	}
	st := newStream(b.w, b.seed, streamTrace)
	for deadline := time.Now().Add(window); time.Now().Before(deadline); {
		i, _ := st.next()
		if err := b.traceRequest(tr, p, i, &r); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// traceCold walks seeded passes of the grid. A cold request cannot be
// repeated on the server that answered it, so every pass starts
// traceReps servers for the round trips and traceReps for the handler
// calls, and the pipeline forgets its loaded models: each repetition of a
// request is cold in the same way. These servers keep only their newest
// cache entry, which changes no reply and keeps the traced run's heap
// small.
func (b *bench) traceCold(window time.Duration) (*tracer, error) {
	tr := newTracer()
	p := newPipeline(tr)
	st := newStream(b.w, b.seed, streamTrace)
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		if err := b.tracePass(tr, p, st, deadline); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

var traceColdOptions = serve.Options{CacheBudget: 1}

func (b *bench) tracePass(tr *tracer, p *pipeline, st *stream, deadline time.Time) error {
	r := replicas{cold: true}
	defer func() {
		for _, cn := range r.conns {
			cn.close()
			cn.t.close()
		}
	}()
	for k := 0; k < traceReps; k++ {
		_, cn, err := freshTarget(traceColdOptions)
		if err != nil {
			return err
		}
		r.conns = append(r.conns, cn)
		r.handlers = append(r.handlers, serve.NewServer(traceColdOptions))
	}
	p.models = make(map[string]*cli.Model)
	for end := false; !end && time.Now().Before(deadline); {
		var i int
		i, end = st.next()
		if err := b.traceRequest(tr, p, i, &r); err != nil {
			return err
		}
	}
	return nil
}

// replicas are where the traceReps repetitions of a traced request go:
// the same warm server every time, or one cold server per repetition.
type replicas struct {
	cold     bool
	conns    []*conn
	handlers []http.Handler
}

// traceRequest traces variant i traceReps times, each time a round trip,
// a handler call and a stage-by-stage execution, and keeps the fastest
// reading of each span: a preemption or a collection then has to hit
// every repetition of a span to distort it.
func (b *bench) traceRequest(tr *tracer, p *pipeline, i int, r *replicas) error {
	v := &b.w.variants[i]
	var req spanSet
	var model *cli.Model
	for k := 0; k < traceReps; k++ {
		var cur spanSet
		// On a warm server every call runs twice in a row and only the
		// second is timed: it then finds the processor caches holding its
		// own data, not the previous call's.
		runs := []*spanSet{nil, &cur}
		if r.cold {
			runs = runs[1:]
		}
		for _, rec := range runs {
			if err := tr.roundtrip(r.conns[k], v, b.refs[i], rec); err != nil {
				return err
			}
		}
		var hbody []byte
		for _, rec := range runs {
			var err error
			if hbody, err = tr.handler(r.handlers[k], v, rec); err != nil {
				return err
			}
		}
		for _, rec := range runs {
			e := p.entries[v.compileKey()]
			if r.cold {
				var err error
				if e, err = p.compile(v, rec); err != nil {
					return err
				}
				model = e.model
			}
			body, err := p.serve(v, e, !r.cold, rec)
			if err != nil {
				return err
			}
			if err := tr.compare(v, hbody, body); err != nil {
				return err
			}
		}
		req.keepMin(&cur)
	}
	if r.cold {
		p.models[v.App] = model
	}
	return tr.finish(v, &req)
}

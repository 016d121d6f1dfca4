// Package serve is the long-running compile-and-simulate service behind
// cmd/fppnd: the production surface that amortizes one compile across
// millions of requests.
//
// Models are canonicalized and content-hashed (sha256 over canonical JSON,
// internal/cli); every pipeline stage — validated network, task graph,
// static schedule, compiled plan.Plan — is cached in a cost-aware LRU
// keyed by (model digest, M, heuristic), with singleflight on compile
// misses so N concurrent first-requests trigger exactly one compile.
// Compiled plans are immutable (enforced by the planfreeze analyzer), so
// one cached plan serves concurrent /simulate requests; per-request state
// comes from per-plan, per-frame-count pools of plan.RunState whose warm
// arenas replay on the zero-alloc steady-state path. Entry.replay is the
// only way to a pooled state: it checks one out, runs it, hands the
// report to a callback and parks the state again, so no report outlives
// its run.
//
// Locking rule: Cache.mu is the package's only mutex. Its critical
// sections touch only the cache map, the LRU list and atomic counters;
// compiles, model loads and replays run outside it, and the per-entry and
// per-server sub-caches are sync.Maps. With one lock that is never held
// across a call, no lock-order cycle can form. TestServeDeclaresOneMutex
// pins the rule.
//
// Endpoints: POST /compile, POST /simulate, POST /analyze (lint +
// schedulability + happens-before verdicts), GET /healthz, GET /metrics
// (hits, misses, inflight-coalesced, evictions, p50/p99 latency
// histograms — publishable as an expvar.Func).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/feas"
	"repro/internal/hb"
	"repro/internal/lint"
	"repro/internal/plan"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// Options tunes a Server.
type Options struct {
	// CacheBudget bounds the summed cost of cached pipelines, in
	// approximate bytes (default 256 MiB).
	CacheBudget int64
	// MaxProcessors bounds the M a request may ask for (default 64).
	MaxProcessors int
	// MaxFrames bounds the frame count of one /simulate (default 4096).
	MaxFrames int
	// MaxAnalyzeJobs gates the schedulability and happens-before passes
	// of /analyze: graphs with more jobs per frame report those sections
	// as skipped (default 4096), mirroring the FPPN018–020 lint gates.
	MaxAnalyzeJobs int
}

func (o Options) withDefaults() Options {
	if o.CacheBudget == 0 {
		o.CacheBudget = 256 << 20
	}
	if o.MaxProcessors == 0 {
		o.MaxProcessors = 64
	}
	if o.MaxFrames == 0 {
		o.MaxFrames = 4096
	}
	if o.MaxAnalyzeJobs == 0 {
		o.MaxAnalyzeJobs = 4096
	}
	return o
}

// Server is the compile-and-simulate service. Create with NewServer; it
// implements http.Handler and is safe for concurrent use.
type Server struct {
	opts    Options
	metrics *Metrics
	cache   *Cache
	mux     *http.ServeMux
	start   time.Time

	// models caches loaded *cli.Model values by spec name, so the
	// network build + canonicalization + digest runs once per name, not
	// per request.
	models sync.Map

	maxBody int64 // POST body cap, see requestBodyBase
}

// NewServer returns a ready-to-serve handler.
func NewServer(opts Options) *Server {
	s := &Server{
		opts:    opts.withDefaults(),
		metrics: &Metrics{},
		start:   time.Now(),
	}
	s.maxBody = requestBodyBase + requestBodyPerFrame*int64(s.opts.MaxFrames)
	s.cache = newCache(s.opts.CacheBudget, s.metrics)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /compile", s.instrument(&s.metrics.CompileLatency, s.handleCompile))
	s.mux.HandleFunc("POST /simulate", s.instrument(&s.metrics.SimulateLatency, s.handleSimulate))
	s.mux.HandleFunc("POST /analyze", s.instrument(&s.metrics.AnalyzeLatency, s.handleAnalyze))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Stats snapshots every counter; GET /metrics serves it and cmd/fppnd
// publishes it as an expvar.Func.
func (s *Server) Stats() Stats {
	m := s.metrics
	return Stats{
		UptimeS:  round2(time.Since(s.start).Seconds()),
		Requests: m.Requests.Load(),
		Errors:   m.Errors.Load(),
		Cache: CacheStats{
			Hits:          m.Hits.Load(),
			Misses:        m.Misses.Load(),
			Coalesced:     m.Coalesced.Load(),
			Evictions:     m.Evictions.Load(),
			Compiles:      m.Compiles.Load(),
			StatesCreated: m.StatesCreated.Load(),
			Entries:       s.cache.Len(),
			CostUsed:      s.cache.Used(),
			CostBudget:    s.opts.CacheBudget,
		},
		Latency: map[string]HistogramSnapshot{
			"compile":  m.CompileLatency.Snapshot(),
			"simulate": m.SimulateLatency.Snapshot(),
			"analyze":  m.AnalyzeLatency.Snapshot(),
		},
	}
}

// apiError carries an HTTP status with a handler error.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func unprocessable(format string, args ...any) error {
	return &apiError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf(format, args...)}
}

// errorStatus maps an error to its HTTP status: explicit apiErrors keep
// theirs, usage errors (unknown model, bad heuristic) are the client's
// fault, anything else is a model/pipeline failure.
func errorStatus(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	if cli.IsUsage(err) {
		return http.StatusBadRequest
	}
	return http.StatusUnprocessableEntity
}

// instrument wraps a handler with request/error counting, the endpoint's
// latency histogram and the request body cap.
func (s *Server) instrument(h *Histogram, fn func(r *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.Requests.Add(1)
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		resp, err := fn(r)
		h.Observe(time.Since(start))
		if err != nil {
			s.metrics.Errors.Add(1)
			writeJSON(w, errorStatus(err), map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// model returns the cached loaded model for a spec, building, validating,
// canonicalizing and digesting it on first use. Concurrent first uses may
// each load the model; the load is deterministic and the first stored
// result wins.
func (s *Server) model(spec string) (*cli.Model, error) {
	if spec == "" {
		return nil, badRequest("missing \"app\" (want one of %v)", cli.ModelNames())
	}
	if m, ok := s.models.Load(spec); ok {
		return m.(*cli.Model), nil
	}
	m, err := cli.LoadModel(spec)
	if err != nil {
		return nil, err
	}
	stored, _ := s.models.LoadOrStore(spec, m)
	return stored.(*cli.Model), nil
}

// jobRequest is the shared request envelope of the three POST endpoints.
type jobRequest struct {
	// App names the model ("signal", "fms", "scale:10k", …).
	App string `json:"app"`
	// M is the processor count (default 2).
	M int `json:"m"`
	// Heuristic is the schedule-priority order (default "alap-edf";
	// "portfolio" runs all heuristics and keeps the best makespan).
	Heuristic string `json:"heuristic"`
	// Frames is the hyperperiod frame count for /simulate (default 1).
	Frames int `json:"frames"`
	// Events maps sporadic process names to event time stamps (exact
	// rationals or decimals, e.g. "0.05" or "1/20"). /simulate only.
	Events map[string][]string `json:"events"`
	// Concurrent selects the goroutine-per-processor runner. /simulate
	// only.
	Concurrent bool `json:"concurrent"`
}

// Every POST body is capped (413 beyond the cap) at requestBodyBase plus
// requestBodyPerFrame for each of the MaxFrames frames a /simulate may ask
// for, so the cap follows the frame bound the server already enforces.
// The base covers a request without events; the per-frame allowance
// covers one frame of the densest legal sporadic event list of every
// loadable model. That is fms: 585 events per 10 s frame, 7.9 KB of
// JSON as exact rationals at frame 4095, about half the allowance
// (TestRequestBodyPerFrameCoversFMS). Scale models have no sporadic
// processes. The default cap is 64 MiB + 64 KiB.
const (
	requestBodyBase     = 64 << 10
	requestBodyPerFrame = 16 << 10
)

func decodeRequest(r *http.Request) (*jobRequest, error) {
	var req jobRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	if err == nil {
		// Read to the end so the cap applies to the whole body, not only
		// to the JSON value at its start.
		_, err = io.Copy(io.Discard, r.Body)
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return nil, &apiError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
	}
	if err != nil {
		return nil, badRequest("bad request body: %v", err)
	}
	if req.M == 0 {
		req.M = 2
	}
	if req.Heuristic == "" {
		req.Heuristic = sched.ALAPEDF.String()
	}
	if req.Frames == 0 {
		req.Frames = 1
	}
	return &req, nil
}

// resolve validates the request parameters and returns the cached (or
// freshly compiled) pipeline entry for them.
func (s *Server) resolve(req *jobRequest) (*Entry, bool, error) {
	if req.M < 1 || req.M > s.opts.MaxProcessors {
		return nil, false, badRequest("m %d out of range [1, %d]", req.M, s.opts.MaxProcessors)
	}
	if req.Heuristic != cli.PortfolioName {
		if _, err := cli.ParseHeuristic(req.Heuristic); err != nil {
			return nil, false, err
		}
	}
	model, err := s.model(req.App)
	if err != nil {
		return nil, false, err
	}
	key := cacheKey{digest: model.Digest, m: req.M, heuristic: req.Heuristic}
	return s.cache.GetOrCompile(key, func() (*Entry, error) {
		return s.compileEntry(model, req.M, req.Heuristic)
	})
}

// compileEntry runs the full pipeline — derive, schedule, compile — for a
// cache miss. Exactly one of these runs per key at a time (singleflight).
func (s *Server) compileEntry(model *cli.Model, m int, heuristic string) (*Entry, error) {
	start := time.Now()
	tg, err := taskgraph.Derive(model.Net)
	if err != nil {
		return nil, unprocessable("derive %s: %v", model.Name, err)
	}
	var sch *sched.Schedule
	if heuristic == cli.PortfolioName {
		sch, err = sched.Portfolio(tg, m, sched.PortfolioOptions{})
	} else {
		h, herr := cli.ParseHeuristic(heuristic)
		if herr != nil {
			return nil, herr
		}
		sch, err = sched.ListSchedule(tg, m, h)
	}
	if err != nil {
		return nil, unprocessable("schedule %s on %d processors: %v", model.Name, m, err)
	}
	feasible := sch.Validate() == nil
	p, err := plan.Compile(sch)
	if err != nil {
		return nil, unprocessable("compile %s: %v", model.Name, err)
	}
	s.metrics.Compiles.Add(1)
	return &Entry{
		Model:       model,
		TG:          tg,
		Schedule:    sch,
		Plan:        p,
		Feasible:    feasible,
		CompileTime: time.Since(start),
		cost:        entryBaseCost + int64(len(tg.Jobs))*entryJobCost,
		metrics:     s.metrics,
	}, nil
}

// CompileResponse is the POST /compile result.
type CompileResponse struct {
	App         string  `json:"app"`
	Digest      string  `json:"digest"`
	M           int     `json:"m"`
	Heuristic   string  `json:"heuristic"`
	Jobs        int     `json:"jobs"`
	Hyperperiod string  `json:"hyperperiod"`
	Feasible    bool    `json:"feasible"`
	Makespan    string  `json:"makespan"`
	Cached      bool    `json:"cached"`
	CompileUs   float64 `json:"compile_us"`
}

func (s *Server) handleCompile(r *http.Request) (any, error) {
	req, err := decodeRequest(r)
	if err != nil {
		return nil, err
	}
	e, cached, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	return &CompileResponse{
		App:         req.App,
		Digest:      e.Model.Digest,
		M:           req.M,
		Heuristic:   e.Schedule.Heuristic.String(),
		Jobs:        len(e.TG.Jobs),
		Hyperperiod: e.TG.Hyperperiod.String(),
		Feasible:    e.Feasible,
		Makespan:    e.Schedule.Makespan().String(),
		Cached:      cached,
		CompileUs:   round2(float64(e.CompileTime.Nanoseconds()) / 1e3),
	}, nil
}

// SimulateResponse is the POST /simulate result: the run's headline
// numbers, with outputs reduced to per-channel sample counts.
type SimulateResponse struct {
	App         string         `json:"app"`
	Digest      string         `json:"digest"`
	M           int            `json:"m"`
	Heuristic   string         `json:"heuristic"`
	Frames      int            `json:"frames"`
	Cached      bool           `json:"cached"`
	Feasible    bool           `json:"feasible"`
	Entries     int            `json:"entries"`
	Misses      int            `json:"misses"`
	Skipped     int            `json:"skippedServerJobs"`
	Makespan    string         `json:"makespan"`
	MaxLateness string         `json:"maxLateness"`
	Outputs     map[string]int `json:"outputSampleCounts"`
}

func (s *Server) handleSimulate(r *http.Request) (any, error) {
	req, err := decodeRequest(r)
	if err != nil {
		return nil, err
	}
	if req.Frames < 1 || req.Frames > s.opts.MaxFrames {
		return nil, badRequest("frames %d out of range [1, %d]", req.Frames, s.opts.MaxFrames)
	}
	events, err := parseEvents(req.Events)
	if err != nil {
		return nil, err
	}
	e, cached, err := s.resolve(req)
	if err != nil {
		return nil, err
	}

	cfg := plan.Config{
		Frames:         req.Frames,
		SporadicEvents: events,
		Inputs:         e.inputsFor(req.Frames),
	}
	resp := &SimulateResponse{
		App:       req.App,
		Digest:    e.Model.Digest,
		M:         req.M,
		Heuristic: e.Schedule.Heuristic.String(),
		Frames:    req.Frames,
		Cached:    cached,
		Feasible:  e.Feasible,
	}
	err = e.replay(cfg, req.Concurrent, func(rep *plan.Report) {
		// The report aliases the pooled state's arenas: copy scalars and
		// fresh strings out of it before replay parks the state.
		resp.Entries = len(rep.Entries)
		resp.Misses = len(rep.Misses)
		resp.Skipped = len(rep.Skipped)
		resp.Makespan = rep.Makespan.String()
		resp.MaxLateness = rep.MaxLateness.String()
		resp.Outputs = make(map[string]int, len(rep.Outputs))
		for ch, samples := range rep.Outputs {
			resp.Outputs[ch] = len(samples)
		}
	})
	if err != nil {
		return nil, unprocessable("run %s: %v", req.App, err)
	}
	return resp, nil
}

// parseEvents decodes the request's sporadic event map: each time stamp is
// an exact rational or decimal string.
func parseEvents(raw map[string][]string) (map[string][]plan.Time, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make(map[string][]plan.Time, len(raw))
	for proc, times := range raw {
		parsed := make([]plan.Time, len(times))
		for i, t := range times {
			v, err := rational.Parse(t)
			if err != nil {
				return nil, badRequest("bad event time %q for %q: %v", t, proc, err)
			}
			parsed[i] = v
		}
		out[proc] = parsed
	}
	return out, nil
}

// LintSection is the lint part of an /analyze response.
type LintSection struct {
	Errors   int            `json:"errors"`
	Warnings int            `json:"warnings"`
	Findings []lint.Finding `json:"findings"`
}

// FeasSection is the schedulability part of an /analyze response.
type FeasSection struct {
	Verdict string           `json:"verdict"`
	Results []FeasResultJSON `json:"results"`
	Skipped string           `json:"skipped,omitempty"`
}

// FeasResultJSON is one schedulability test's verdict.
type FeasResultJSON struct {
	Test      string `json:"test"`
	Verdict   string `json:"verdict"`
	Certified bool   `json:"certified"`
	Reason    string `json:"reason"`
}

// HBSection is the happens-before part of an /analyze response.
type HBSection struct {
	RaceFree bool   `json:"raceFree"`
	Pairs    int    `json:"pairs"`
	Frames   int    `json:"frames"`
	Witness  string `json:"witness,omitempty"`
	Skipped  string `json:"skipped,omitempty"`
}

// AnalyzeResponse is the POST /analyze result: the three static verdicts
// of the toolchain over one cached pipeline.
type AnalyzeResponse struct {
	App            string      `json:"app"`
	Digest         string      `json:"digest"`
	M              int         `json:"m"`
	Heuristic      string      `json:"heuristic"`
	Feasible       bool        `json:"feasible"`
	Cached         bool        `json:"cached"`
	Lint           LintSection `json:"lint"`
	Schedulability FeasSection `json:"schedulability"`
	Determinism    HBSection   `json:"determinism"`
}

func (s *Server) handleAnalyze(r *http.Request) (any, error) {
	req, err := decodeRequest(r)
	if err != nil {
		return nil, err
	}
	e, cached, err := s.resolve(req)
	if err != nil {
		return nil, err
	}

	resp := &AnalyzeResponse{
		App:       req.App,
		Digest:    e.Model.Digest,
		M:         req.M,
		Heuristic: e.Schedule.Heuristic.String(),
		Feasible:  e.Feasible,
		Cached:    cached,
	}
	lrep := lint.Run(e.Model.Net, lint.Options{Processors: req.M})
	resp.Lint = LintSection{
		Errors:   len(lrep.Errors()),
		Warnings: len(lrep.Warnings()),
		Findings: lrep.Findings,
	}

	jobs := len(e.TG.Jobs)
	if jobs > s.opts.MaxAnalyzeJobs {
		gate := fmt.Sprintf("%d jobs per frame exceed the analysis gate (%d)", jobs, s.opts.MaxAnalyzeJobs)
		resp.Schedulability.Skipped = gate
		resp.Determinism.Skipped = gate
		return resp, nil
	}

	if frep, ferr := feas.Analyze(e.TG, req.M, feas.Options{}); ferr != nil {
		resp.Schedulability.Skipped = ferr.Error()
	} else {
		resp.Schedulability.Verdict = frep.Verdict().String()
		for _, res := range frep.Results {
			resp.Schedulability.Results = append(resp.Schedulability.Results, FeasResultJSON{
				Test:      res.Test.String(),
				Verdict:   res.Verdict.String(),
				Certified: res.Certified,
				Reason:    res.Reason,
			})
		}
	}

	v := hb.Verify(e.Plan)
	resp.Determinism = HBSection{RaceFree: v.RaceFree, Pairs: v.Pairs, Frames: v.Frames}
	if v.Witness != nil {
		resp.Determinism.Witness = v.Witness.String()
	}
	return resp, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"uptime_s":   round2(time.Since(s.start).Seconds()),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

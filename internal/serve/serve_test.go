package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/lint"
	"repro/internal/rational"
	"repro/internal/taskgraph"
)

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	return NewServer(opts)
}

// post sends one JSON request through the handler stack and decodes the
// JSON response into out (when non-nil), returning the status code.
func post(t *testing.T, s *Server, path string, req any, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s response: %v\n%s", path, err, w.Body.String())
		}
	}
	return w.Code
}

func get(t *testing.T, s *Server, path string, out any) int {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s response: %v\n%s", path, err, w.Body.String())
		}
	}
	return w.Code
}

// TestCompileCachesByContent pins the content-addressed cache behavior:
// the first compile misses, the second request for the same (model, M,
// heuristic) is served from the cache with an identical digest.
func TestCompileCachesByContent(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})

	var first, second CompileResponse
	if code := post(t, s, "/compile", map[string]any{"app": "signal"}, &first); code != http.StatusOK {
		t.Fatalf("first compile: status %d", code)
	}
	if first.Cached {
		t.Fatal("first compile reported cached")
	}
	if first.Digest == "" || first.Jobs == 0 || !first.Feasible {
		t.Fatalf("implausible compile response: %+v", first)
	}
	if code := post(t, s, "/compile", map[string]any{"app": "signal"}, &second); code != http.StatusOK {
		t.Fatalf("second compile: status %d", code)
	}
	if !second.Cached {
		t.Fatal("second compile not served from cache")
	}
	if second.Digest != first.Digest {
		t.Fatalf("digest changed between requests: %s vs %s", first.Digest, second.Digest)
	}
	if got := s.metrics.Compiles.Load(); got != 1 {
		t.Fatalf("Compiles = %d after two identical requests, want 1", got)
	}

	// A different M is a different pipeline: new miss, same digest.
	var third CompileResponse
	if code := post(t, s, "/compile", map[string]any{"app": "signal", "m": 3}, &third); code != http.StatusOK {
		t.Fatalf("m=3 compile: status %d", code)
	}
	if third.Cached {
		t.Fatal("m=3 compile reported cached despite new key")
	}
	if third.Digest != first.Digest {
		t.Fatal("digest must depend on model content only, not on M")
	}
	if got := s.metrics.Compiles.Load(); got != 2 {
		t.Fatalf("Compiles = %d, want 2", got)
	}
}

// TestSingleflightCoalescesConcurrentMisses fires N concurrent first
// requests for one cold key and requires exactly one pipeline execution:
// one miss, N-1 coalesced waiters, all successful.
func TestSingleflightCoalescesConcurrentMisses(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})
	const n = 16

	var wg sync.WaitGroup
	codes := make([]int, n)
	digests := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp CompileResponse
			codes[i] = post(t, s, "/compile", map[string]any{"app": "fms"}, &resp)
			digests[i] = resp.Digest
		}(i)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if digests[i] != digests[0] {
			t.Fatalf("request %d saw digest %s, want %s", i, digests[i], digests[0])
		}
	}
	if got := s.metrics.Compiles.Load(); got != 1 {
		t.Fatalf("%d concurrent cold requests ran %d compiles, want exactly 1", n, got)
	}
	if got := s.metrics.Misses.Load(); got != 1 {
		t.Fatalf("Misses = %d, want 1", got)
	}
	// Latecomers either coalesced onto the in-flight compile or hit the
	// finished entry, depending on scheduling; none may have missed.
	hits, coal := s.metrics.Hits.Load(), s.metrics.Coalesced.Load()
	if hits+coal != n-1 {
		t.Fatalf("hits %d + coalesced %d != %d", hits, coal, n-1)
	}
}

// TestCacheSingleflightDeterministic drives the cache directly with a
// gated compile function so every waiter is provably in flight before the
// compile finishes: exactly one compile call, n-1 coalesced waiters.
func TestCacheSingleflightDeterministic(t *testing.T) {
	t.Parallel()
	m := &Metrics{}
	c := newCache(1<<30, m)
	key := cacheKey{digest: "d", m: 2, heuristic: "alap-edf"}

	release := make(chan struct{})
	var compiles int32
	compile := func() (*Entry, error) {
		atomic.AddInt32(&compiles, 1)
		<-release
		return &Entry{cost: 1, metrics: m}, nil
	}

	const n = 8
	var wg sync.WaitGroup
	entries := make([]*Entry, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := c.GetOrCompile(key, compile)
			if err != nil {
				t.Errorf("GetOrCompile: %v", err)
			}
			entries[i] = e
		}(i)
	}
	// Wait until all n-1 latecomers are parked on the flight, then let
	// the one compile finish.
	deadline := time.Now().Add(5 * time.Second)
	for m.Coalesced.Load() != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters coalesced", m.Coalesced.Load(), n-1)
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := atomic.LoadInt32(&compiles); got != 1 {
		t.Fatalf("compile ran %d times, want 1", got)
	}
	for i := 1; i < n; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("waiter %d got a different entry", i)
		}
	}
	if m.Misses.Load() != 1 || m.Coalesced.Load() != n-1 {
		t.Fatalf("misses=%d coalesced=%d", m.Misses.Load(), m.Coalesced.Load())
	}
}

// TestCacheCompileErrorsAreNotCached pins that a failed compile is shared
// with its coalesced waiters but never inserted: the next request retries.
func TestCacheCompileErrorsAreNotCached(t *testing.T) {
	t.Parallel()
	m := &Metrics{}
	c := newCache(1<<30, m)
	key := cacheKey{digest: "bad", m: 2, heuristic: "alap-edf"}

	boom := errors.New("boom")
	if _, _, err := c.GetOrCompile(key, func() (*Entry, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed compile was cached")
	}
	// Retry succeeds and caches.
	e, hit, err := c.GetOrCompile(key, func() (*Entry, error) {
		return &Entry{cost: 1, metrics: m}, nil
	})
	if err != nil || hit || e == nil {
		t.Fatalf("retry: e=%v hit=%v err=%v", e, hit, err)
	}
	if c.Len() != 1 {
		t.Fatal("successful retry not cached")
	}
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// poolSlack bounds the RunStates one sync.Pool may create, beyond its
// first, for reasons outside the server: a Put parks the state in the
// current P's private slot, which a Get on another P cannot take, and
// every GC cycle may empty the pool. At GOMAXPROCS=1 with no GC it is 0.
func poolSlack(gcs uint32) int64 {
	return int64(runtime.GOMAXPROCS(0))*(int64(gcs)+1) - 1
}

// TestSimulateWarmPathReusesEverything pins the tentpole acceptance
// criterion: after the first /simulate, further identical requests
// perform zero compiles and create zero new RunStates — the warm path is
// cache hit + pooled state + replay.
func TestSimulateWarmPathReusesEverything(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})
	req := map[string]any{"app": "signal", "frames": 4}

	var first SimulateResponse
	if code := post(t, s, "/simulate", req, &first); code != http.StatusOK {
		t.Fatalf("first simulate: status %d", code)
	}
	if first.Entries == 0 {
		t.Fatalf("simulate executed no jobs: %+v", first)
	}
	compiles := s.metrics.Compiles.Load()
	states := s.metrics.StatesCreated.Load()
	if compiles != 1 || states != 1 {
		t.Fatalf("cold simulate: compiles=%d states=%d, want 1/1", compiles, states)
	}

	gcBefore := numGC()
	for i := 0; i < 50; i++ {
		var resp SimulateResponse
		if code := post(t, s, "/simulate", req, &resp); code != http.StatusOK {
			t.Fatalf("warm simulate %d: status %d", i, code)
		}
		if !resp.Cached {
			t.Fatalf("warm simulate %d missed the cache", i)
		}
		if resp.Entries != first.Entries || resp.Makespan != first.Makespan {
			t.Fatalf("warm simulate %d diverged: %+v vs %+v", i, resp, first)
		}
	}
	if got := s.metrics.Compiles.Load(); got != compiles {
		t.Fatalf("warm traffic ran %d extra compiles", got-compiles)
	}
	// Race-mode sync.Pool drops a random fraction of Puts by design, so
	// the state-reuse criterion is asserted only in normal builds.
	gcs := numGC() - gcBefore
	if got := s.metrics.StatesCreated.Load(); !raceEnabled && got-states > poolSlack(gcs) {
		t.Fatalf("warm sequential traffic created %d extra RunStates across %d GC cycles at GOMAXPROCS=%d, want at most %d",
			got-states, gcs, runtime.GOMAXPROCS(0), poolSlack(gcs))
	}
}

// simulateRaw sends one encoded /simulate body through the handler stack
// and returns the status code and the raw response body. It calls no
// t.Fatal, so worker goroutines may use it.
func simulateRaw(s *Server, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/simulate", bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// TestSimulatePoolBoundsStatesUnderConcurrency hammers one warm entry
// from many goroutines with interleaved request shapes: frames 1 and 2,
// each on the sequential and the concurrent runner, so both of the
// entry's frame-count pools hand states back and forth between runners.
// It is the stale-report witness: every reply must be byte-identical to
// the sequential reference reply of its shape, and a handler that read a
// report after its state went back to the pool would race, under -race,
// with the next request replaying on that state. The RunStates ever
// created must stay at or below the high-water concurrency per pool, not
// grow with request count.
func TestSimulatePoolBoundsStatesUnderConcurrency(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})
	// Compile first, so every reply below is a cache hit.
	if code := post(t, s, "/simulate", map[string]any{"app": "signal"}, nil); code != http.StatusOK {
		t.Fatalf("warm-up simulate: status %d", code)
	}
	var bodies, refs [][]byte
	for _, frames := range []int{1, 2} {
		for _, concurrent := range []bool{false, true} {
			body, err := json.Marshal(map[string]any{"app": "signal", "frames": frames, "concurrent": concurrent})
			if err != nil {
				t.Fatal(err)
			}
			code, ref := simulateRaw(s, body)
			if code != http.StatusOK {
				t.Fatalf("reference simulate %s: status %d: %s", body, code, ref)
			}
			bodies, refs = append(bodies, body), append(refs, ref)
		}
	}
	if bytes.Equal(refs[0], refs[2]) {
		t.Fatal("frames 1 and 2 give the same reply; the shapes do not tell the pools apart")
	}

	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := (w + i) % len(bodies)
				code, got := simulateRaw(s, bodies[k])
				if code != http.StatusOK {
					t.Errorf("simulate %s: status %d: %s", bodies[k], code, got)
					return
				}
				if !bytes.Equal(got, refs[k]) {
					t.Errorf("simulate %s differs from the sequential reference:\ngot  %s\nwant %s", bodies[k], got, refs[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if got := s.metrics.Compiles.Load(); got != 1 {
		t.Fatalf("Compiles = %d under warm concurrent load, want 1", got)
	}
	// Two frame counts, so two pools, each bounded by the worker count.
	if got := s.metrics.StatesCreated.Load(); !raceEnabled && got > 2*(workers+1) {
		t.Fatalf("StatesCreated = %d for %d workers on two pools: pool is not reusing states", got, workers)
	}
}

// TestSimulateWithSporadicEvents exercises the events parameter end to
// end on the FMS model: injected sporadic arrivals must grow the executed
// job count versus the quiescent run.
func TestSimulateWithSporadicEvents(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})

	var quiet, busy SimulateResponse
	if code := post(t, s, "/simulate", map[string]any{"app": "fms"}, &quiet); code != http.StatusOK {
		t.Fatalf("quiescent simulate: status %d", code)
	}
	req := map[string]any{
		"app": "fms",
		"events": map[string][]string{
			"AnemoConfig":      {"0.04"},
			"MagnDeclinConfig": {"1/2"},
		},
	}
	if code := post(t, s, "/simulate", req, &busy); code != http.StatusOK {
		t.Fatalf("event simulate: status %d", code)
	}
	if busy.Entries <= quiet.Entries {
		t.Fatalf("sporadic events did not add executions: %d vs %d", busy.Entries, quiet.Entries)
	}
	if busy.Skipped >= quiet.Skipped {
		t.Fatalf("sporadic events did not consume skips: %d vs %d", busy.Skipped, quiet.Skipped)
	}
}

// TestSimulateConcurrentRunnerMatchesSequential pins that the
// goroutine-per-processor runner behind "concurrent": true reports the
// same headline numbers as the discrete-event reference.
func TestSimulateConcurrentRunnerMatchesSequential(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})

	var seq, conc SimulateResponse
	if code := post(t, s, "/simulate", map[string]any{"app": "signal", "frames": 3}, &seq); code != http.StatusOK {
		t.Fatalf("sequential simulate: status %d", code)
	}
	if code := post(t, s, "/simulate", map[string]any{"app": "signal", "frames": 3, "concurrent": true}, &conc); code != http.StatusOK {
		t.Fatalf("concurrent simulate: status %d", code)
	}
	if seq.Entries != conc.Entries || seq.Makespan != conc.Makespan || seq.MaxLateness != conc.MaxLateness {
		t.Fatalf("concurrent runner diverged from sequential:\nseq  %+v\nconc %+v", seq, conc)
	}
}

// TestAnalyzeVerdicts checks the three /analyze sections on a model known
// to be clean: no lint errors, a schedulable verdict, and a race-free
// happens-before certificate.
func TestAnalyzeVerdicts(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})

	var resp AnalyzeResponse
	if code := post(t, s, "/analyze", map[string]any{"app": "signal"}, &resp); code != http.StatusOK {
		t.Fatalf("analyze: status %d", code)
	}
	if resp.Lint.Errors != 0 {
		t.Fatalf("signal model lints with %d errors: %+v", resp.Lint.Errors, resp.Lint.Findings)
	}
	if resp.Schedulability.Skipped != "" {
		t.Fatalf("schedulability skipped: %s", resp.Schedulability.Skipped)
	}
	if len(resp.Schedulability.Results) == 0 {
		t.Fatal("no schedulability results")
	}
	if resp.Determinism.Skipped != "" || !resp.Determinism.RaceFree {
		t.Fatalf("determinism verdict: %+v", resp.Determinism)
	}
	if resp.Determinism.Pairs == 0 {
		t.Fatal("happens-before checked zero conflicting pairs")
	}
}

// TestAnalyzeJobGate pins the MaxAnalyzeJobs gate: an oversized graph
// still lints but reports the expensive passes as skipped.
func TestAnalyzeJobGate(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{MaxAnalyzeJobs: 1})

	var resp AnalyzeResponse
	if code := post(t, s, "/analyze", map[string]any{"app": "signal"}, &resp); code != http.StatusOK {
		t.Fatalf("analyze: status %d", code)
	}
	if resp.Schedulability.Skipped == "" || resp.Determinism.Skipped == "" {
		t.Fatalf("gate did not fire: %+v", resp)
	}
	if len(resp.Lint.Findings) == 0 && resp.Lint.Warnings == 0 && resp.Lint.Errors == 0 {
		// Lint always runs; a clean report is fine, but the section must
		// have been populated (Findings may legitimately be empty).
		t.Log("lint section empty but present — ok")
	}
}

// TestAnalyzeLintMatchesRun pins the artifact path of /analyze: on every
// registry application, capacity and heuristic, the lint section that
// reads the request's task graph, feas report and hb verdict equals
// lint.Run's, with the analysis gate open and with it shut
// (MaxAnalyzeJobs 1), where lint computes its own feas and hb.
func TestAnalyzeLintMatchesRun(t *testing.T) {
	t.Parallel()
	heuristics := []string{"alap-edf", "b-level", "deadline-monotonic", "edf", cli.PortfolioName}
	for _, opts := range []Options{{}, {MaxAnalyzeJobs: 1}} {
		s := newTestServer(t, opts)
		for _, app := range apps.Names() {
			net, err := apps.Build(app)
			if err != nil {
				t.Fatal(err)
			}
			for m := 1; m <= 4; m++ {
				rep := lint.Run(net, lint.Options{Processors: m})
				want, err := json.Marshal(LintSection{Errors: len(rep.Errors()), Warnings: len(rep.Warnings()), Findings: rep.Findings})
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range heuristics {
					if h == cli.PortfolioName && m == 1 {
						continue
					}
					var resp AnalyzeResponse
					if code := post(t, s, "/analyze", map[string]any{"app": app, "m": m, "heuristic": h}, &resp); code != http.StatusOK {
						t.Fatalf("%s m=%d %s: status %d", app, m, h, code)
					}
					got, err := json.Marshal(resp.Lint)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("gate %d, %s m=%d %s: lint section\n%s\nwant lint.Run's\n%s", opts.MaxAnalyzeJobs, app, m, h, got, want)
					}
				}
			}
		}
	}
}

// TestAnalyzeArtifactFindings pins the feas artifact of /analyze where it
// shows: on models whose precedence-aware load exceeds one processor, at
// M 1–3, the lint section fires FPPN018 at M=1 and equals lint.Run's, and
// the schedulability section equals feas.Analyze on a fresh derivation at
// the request's M. A report analyzed at any other capacity fails the
// second check.
func TestAnalyzeArtifactFindings(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})
	for _, app := range []string{"signal", "fft-overhead"} {
		net, err := apps.Build(app)
		if err != nil {
			t.Fatal(err)
		}
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Fatal(err)
		}
		for m := 1; m <= 3; m++ {
			var resp AnalyzeResponse
			if code := post(t, s, "/analyze", map[string]any{"app": app, "m": m, "heuristic": "edf"}, &resp); code != http.StatusOK {
				t.Fatalf("%s m=%d: status %d", app, m, code)
			}
			rep := lint.Run(net, lint.Options{Processors: m})
			if m == 1 && !slices.ContainsFunc(rep.Findings, func(f lint.Finding) bool { return f.Code == lint.CodeFeasLoad }) {
				t.Fatalf("%s m=1: lint.Run fires no %s", app, lint.CodeFeasLoad)
			}
			got, _ := json.Marshal(resp.Lint)
			want, _ := json.Marshal(LintSection{Errors: len(rep.Errors()), Warnings: len(rep.Warnings()), Findings: rep.Findings})
			if !bytes.Equal(got, want) {
				t.Errorf("%s m=%d: lint section\n%s\nwant lint.Run's\n%s", app, m, got, want)
			}
			frep, err := feas.Analyze(tg, m, feas.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantFeas := FeasSection{Verdict: frep.Verdict().String()}
			for _, res := range frep.Results {
				wantFeas.Results = append(wantFeas.Results, FeasResultJSON{
					Test: res.Test.String(), Verdict: res.Verdict.String(), Certified: res.Certified, Reason: res.Reason})
			}
			got, _ = json.Marshal(resp.Schedulability)
			want, _ = json.Marshal(wantFeas)
			if !bytes.Equal(got, want) {
				t.Errorf("%s m=%d: schedulability section\n%s\nwant feas.Analyze's\n%s", app, m, got, want)
			}
		}
	}
}

// TestRequestValidation maps the failure modes to their statuses: bad
// parameters are 400s, and none of them reach the compiler.
func TestRequestValidation(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})

	cases := []struct {
		name string
		path string
		req  map[string]any
	}{
		{"unknown app", "/compile", map[string]any{"app": "no-such-app"}},
		{"missing app", "/compile", map[string]any{}},
		{"bad heuristic", "/compile", map[string]any{"app": "signal", "heuristic": "quantum"}},
		{"m too big", "/compile", map[string]any{"app": "signal", "m": 10_000}},
		{"m negative", "/compile", map[string]any{"app": "signal", "m": -1}},
		{"frames too big", "/simulate", map[string]any{"app": "signal", "frames": 1 << 20}},
		{"frames negative", "/simulate", map[string]any{"app": "signal", "frames": -2}},
		{"bad event time", "/simulate", map[string]any{"app": "fms", "events": map[string][]string{"AnemoConfig": {"soon"}}}},
		{"bad scale", "/compile", map[string]any{"app": "scale:many"}},
	}
	for _, tc := range cases {
		if code := post(t, s, tc.path, tc.req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	if got := s.metrics.Compiles.Load(); got != 0 {
		t.Fatalf("invalid requests ran %d compiles", got)
	}
	if got := s.metrics.Errors.Load(); got != int64(len(cases)) {
		t.Fatalf("Errors = %d, want %d", got, len(cases))
	}

	// Wrong method on a POST route.
	r := httptest.NewRequest(http.MethodGet, "/compile", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /compile: status %d, want 405", w.Code)
	}
}

// TestRequestBodyCap pins the body cap on every POST endpoint: a body of
// exactly the cap is served, one byte more is refused with 413 and counted
// in Errors (whether the JSON value itself or trailing bytes after it
// cross the cap), and the server keeps serving. The cap follows MaxFrames,
// so a small MaxFrames keeps the bodies small.
func TestRequestBodyCap(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{MaxFrames: 2})
	if want := int64(requestBodyBase + 2*requestBodyPerFrame); s.maxBody != want {
		t.Fatalf("maxBody = %d, want %d", s.maxBody, want)
	}
	// paddedValue pads a string field so the JSON value itself is n bytes
	// long; trailing pads an n-byte body with spaces after a short value.
	paddedValue := func(n int64) []byte {
		head, tail := `{"app":"signal","pad":"`, `"}`
		return []byte(head + strings.Repeat("x", int(n)-len(head)-len(tail)) + tail)
	}
	trailing := func(n int64) []byte {
		value := `{"app":"signal"}`
		return []byte(value + strings.Repeat(" ", int(n)-len(value)))
	}
	send := func(path string, body []byte) int {
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		return w.Code
	}
	paths := []string{"/compile", "/simulate", "/analyze"}
	for _, path := range paths {
		for _, body := range []struct {
			name string
			make func(int64) []byte
		}{{"value", paddedValue}, {"trailing", trailing}} {
			if code := send(path, body.make(s.maxBody)); code != http.StatusOK {
				t.Errorf("%s %s body at the cap: status %d, want 200", path, body.name, code)
			}
			if code := send(path, body.make(s.maxBody+1)); code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s %s body one byte over the cap: status %d, want 413", path, body.name, code)
			}
		}
		if code := post(t, s, path, map[string]any{"app": "signal"}, nil); code != http.StatusOK {
			t.Errorf("%s after oversized bodies: status %d, want 200", path, code)
		}
	}
	if got, want := s.metrics.Errors.Load(), int64(2*len(paths)); got != want {
		t.Fatalf("Errors = %d, want %d", got, want)
	}
}

// TestRequestBodyCapAdmitsDenseEvents sends an fms /simulate over many
// frames with every sporadic process at its full (m, T) rate in all but
// the last frame (events there would be handled after the run): a legal
// request whose body is larger than a fixed 1 MiB cap would allow. Under
// the default MaxFrames it must be served.
func TestRequestBodyCapAdmitsDenseEvents(t *testing.T) {
	t.Parallel()
	const frames = 256
	s := newTestServer(t, Options{})
	net, frame := fmsFrame(t)
	events := denseEvents(net, rational.Zero, frame.MulInt(frames-1))
	body, err := json.Marshal(map[string]any{"app": "fms", "frames": frames, "events": events})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) <= 1<<20 {
		t.Fatalf("dense body is %d bytes; raise frames so it passes 1 MiB", len(body))
	}
	r := httptest.NewRequest(http.MethodPost, "/simulate", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("%d-byte fms /simulate over %d frames: status %d, want 200\n%s",
			len(body), frames, w.Code, w.Body.String())
	}
}

// TestRequestBodyPerFrameCoversFMS checks the per-frame allowance against
// the densest frame the registry allows: fms, whose seven sporadic
// processes fire at their full (m, T) rate from the frame start, at the
// last frame of the default MaxFrames (the longest time stamps), written
// as exact rationals.
func TestRequestBodyPerFrameCoversFMS(t *testing.T) {
	t.Parallel()
	net, frame := fmsFrame(t)
	last := int64(Options{}.withDefaults().MaxFrames - 1)
	events := denseEvents(net, frame.MulInt(last), frame.MulInt(last+1))
	body, err := json.Marshal(map[string]any{"events": events})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > requestBodyPerFrame {
		t.Fatalf("one dense fms frame is %d bytes, over the %d-byte per-frame allowance",
			len(body), requestBodyPerFrame)
	}
}

// fmsFrame loads fms and returns its network and frame length: the
// hyperperiod with each sporadic process at its user's period.
func fmsFrame(t *testing.T) (*core.Network, rational.Rat) {
	t.Helper()
	m, err := cli.LoadModel("fms")
	if err != nil {
		t.Fatal(err)
	}
	users := make(map[string]core.Time)
	for _, p := range m.Net.Processes() {
		if p.IsSporadic() {
			u, err := m.Net.UserOf(p.Name)
			if err != nil {
				t.Fatal(err)
			}
			users[p.Name] = u.Period()
		}
	}
	frame, err := core.Hyperperiod(m.Net, users)
	if err != nil {
		t.Fatal(err)
	}
	return m.Net, frame
}

// denseEvents fires every sporadic process of net at its full (m, T)
// rate over [from, to): a burst of m events 1 ms apart at the start of
// each period, the periods anchored at from.
func denseEvents(net *core.Network, from, to rational.Rat) map[string][]string {
	out := make(map[string][]string)
	for _, p := range net.Processes() {
		if !p.IsSporadic() {
			continue
		}
		var times []string
		for start := from; start.Less(to); start = start.Add(p.Gen.Period) {
			for j := 0; j < p.Gen.Burst; j++ {
				if t := start.Add(rational.Milli(int64(j))); t.Less(to) {
					times = append(times, t.String())
				}
			}
		}
		out[p.Name] = times
	}
	return out
}

// TestEvictionUnderTinyBudget forces the cost budget down until inserting
// a second pipeline evicts the first, and requires the cache to keep
// serving (the newest entry is never evicted).
func TestEvictionUnderTinyBudget(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{CacheBudget: 1})

	if code := post(t, s, "/compile", map[string]any{"app": "signal"}, nil); code != http.StatusOK {
		t.Fatalf("first compile: status %d", code)
	}
	if code := post(t, s, "/compile", map[string]any{"app": "fft"}, nil); code != http.StatusOK {
		t.Fatalf("second compile: status %d", code)
	}
	if got := s.metrics.Evictions.Load(); got == 0 {
		t.Fatal("tiny budget produced no evictions")
	}
	if got := s.cache.Len(); got != 1 {
		t.Fatalf("cache holds %d entries over a 1-byte budget, want 1", got)
	}
	// The evicted model recompiles on demand.
	var again CompileResponse
	if code := post(t, s, "/compile", map[string]any{"app": "signal"}, &again); code != http.StatusOK {
		t.Fatalf("recompile after eviction: status %d", code)
	}
	if again.Cached {
		t.Fatal("evicted entry reported cached")
	}
}

// TestMetricsAndHealthz exercises the two GET endpoints and checks the
// stats snapshot is consistent with the traffic just sent.
func TestMetricsAndHealthz(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})

	var health map[string]any
	if code := get(t, s, "/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz: %+v", health)
	}

	for i := 0; i < 3; i++ {
		if code := post(t, s, "/simulate", map[string]any{"app": "signal"}, nil); code != http.StatusOK {
			t.Fatalf("simulate %d: status %d", i, code)
		}
	}
	var stats Stats
	if code := get(t, s, "/metrics", &stats); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if stats.Requests != 3 {
		t.Fatalf("Requests = %d, want 3", stats.Requests)
	}
	if stats.Cache.Hits != 2 || stats.Cache.Misses != 1 {
		t.Fatalf("cache stats %+v, want 2 hits / 1 miss", stats.Cache)
	}
	sim := stats.Latency["simulate"]
	if sim.Count != 3 || sim.P99Us <= 0 {
		t.Fatalf("simulate latency snapshot %+v", sim)
	}
	if stats.Cache.CostUsed <= 0 || stats.Cache.CostBudget <= 0 {
		t.Fatalf("cost accounting missing: %+v", stats.Cache)
	}
}

// TestHistogramQuantiles sanity-checks the log2 histogram math the
// /metrics p50/p99 figures rest on.
func TestHistogramQuantiles(t *testing.T) {
	t.Parallel()
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %v", got)
	}
	// 99 fast samples, 1 slow: p50 in the fast bucket, p99 window must
	// not be below p50 and the slow sample dominates the max bucket.
	for i := 0; i < 99; i++ {
		h.Observe(1 * time.Microsecond)
	}
	h.Observe(100 * time.Millisecond)
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < float64(500) || p50 > float64(2000) {
		t.Fatalf("p50 = %vns, want ~1µs", p50)
	}
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
	snap := h.Snapshot()
	if snap.Count != 100 || snap.MeanUs <= 0 {
		t.Fatalf("snapshot %+v", snap)
	}
}

// TestPortfolioHeuristic compiles via the heuristic portfolio and requires a
// feasible result with a concrete winning heuristic.
func TestPortfolioHeuristic(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})
	var resp CompileResponse
	if code := post(t, s, "/compile", map[string]any{"app": "signal", "heuristic": "portfolio"}, &resp); code != http.StatusOK {
		t.Fatalf("portfolio compile: status %d", code)
	}
	if !resp.Feasible {
		t.Fatalf("portfolio found no feasible schedule: %+v", resp)
	}
	if resp.Heuristic == "" || resp.Heuristic == "portfolio" {
		t.Fatalf("winning heuristic not reported: %q", resp.Heuristic)
	}
}

// TestDistinctFrameCountsKeepDistinctPools verifies that requests of
// different frame counts never share RunStates (their arena shapes
// differ) but do share the one compiled plan.
func TestDistinctFrameCountsKeepDistinctPools(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})
	gcBefore := numGC()
	for _, frames := range []int{1, 2, 4} {
		for i := 0; i < 3; i++ {
			req := map[string]any{"app": "signal", "frames": frames}
			if code := post(t, s, "/simulate", req, nil); code != http.StatusOK {
				t.Fatalf("simulate frames=%d: status %d", frames, code)
			}
		}
	}
	if got := s.metrics.Compiles.Load(); got != 1 {
		t.Fatalf("Compiles = %d across frame counts, want 1 (frames is not a cache key)", got)
	}
	// Three pools need three states; sharing one pool would reuse fewer.
	if got, slack := s.metrics.StatesCreated.Load(), poolSlack(numGC()-gcBefore); !raceEnabled && (got < 3 || got > 3*(1+slack)) {
		t.Fatalf("StatesCreated = %d, want 3 (one pool per frame count) plus at most %d per pool", got, slack)
	}
}

// TestResponsesAreSelfConsistent round-trips a scale model through
// /compile and /simulate to check the digest ties them together.
func TestResponsesAreSelfConsistent(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})
	var comp CompileResponse
	var sim SimulateResponse
	if code := post(t, s, "/compile", map[string]any{"app": "scale:200", "m": 4}, &comp); code != http.StatusOK {
		t.Fatalf("compile: status %d", code)
	}
	if code := post(t, s, "/simulate", map[string]any{"app": "scale:200", "m": 4}, &sim); code != http.StatusOK {
		t.Fatalf("simulate: status %d", code)
	}
	if comp.Digest != sim.Digest {
		t.Fatalf("digest mismatch: compile %s, simulate %s", comp.Digest, sim.Digest)
	}
	if !sim.Cached {
		t.Fatal("simulate after compile missed the cache")
	}
	if sim.Entries == 0 {
		t.Fatalf("scale model executed nothing: %+v", sim)
	}
	_ = fmt.Sprintf("%+v", sim) // keep fmt imported alongside future debugging
}

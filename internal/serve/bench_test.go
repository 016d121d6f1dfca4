package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cli"
	"repro/internal/plan"
)

// benchServer returns a server with the given model's pipeline already
// compiled and one simulate request served, so the benchmark loop runs
// entirely on the warm path: cache hit, pooled RunState, arena replay.
func benchServer(b *testing.B, app string, frames int) (*Server, []byte) {
	b.Helper()
	s := NewServer(Options{})
	body, err := json.Marshal(map[string]any{"app": app, "frames": frames})
	if err != nil {
		b.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/simulate", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		b.Fatalf("warm-up simulate: status %d: %s", w.Code, w.Body.String())
	}
	return s, body
}

func serveSimulate(b *testing.B, s *Server, body []byte) {
	b.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/simulate", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		b.Fatalf("simulate: status %d: %s", w.Code, w.Body.String())
	}
}

// BenchmarkServeSimulateSignalWarm measures one warm /simulate of the
// small signal-processing model through the full handler stack —
// request decode, cache hit, pooled run, response encode.
func BenchmarkServeSimulateSignalWarm(b *testing.B) {
	s, body := benchServer(b, "signal", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveSimulate(b, s, body)
	}
}

// BenchmarkServeSimulateFMSWarm is the serving-layer counterpart of
// BenchmarkFig7FMSRun: the same 98-job FMS frame, but through HTTP
// handlers with cache lookup and state pooling. The acceptance criterion
// of the serving layer is that this stays within ~2x of
// BenchmarkDirectFMSRunBaseline below.
func BenchmarkServeSimulateFMSWarm(b *testing.B) {
	s, body := benchServer(b, "fms", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveSimulate(b, s, body)
	}
}

// BenchmarkDirectFMSRunBaseline runs the identical cached FMS pipeline
// without the HTTP layer: same plan, same pooled-state discipline, same
// inputs table. The delta to BenchmarkServeSimulateFMSWarm is the pure
// serving overhead (JSON decode + mux + response encode).
func BenchmarkDirectFMSRunBaseline(b *testing.B) {
	s, _ := benchServer(b, "fms", 1)
	model, err := s.model("fms")
	if err != nil {
		b.Fatal(err)
	}
	key := cacheKey{digest: model.Digest, m: 2, heuristic: "alap-edf"}
	e, hit, err := s.cache.GetOrCompile(key, func() (*Entry, error) { b.Fatal("unexpected compile"); return nil, nil })
	if err != nil || !hit {
		b.Fatalf("entry not cached: hit=%v err=%v", hit, err)
	}
	cfg := plan.Config{Frames: 1, Inputs: e.inputsFor(1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.replay(cfg, false, func(*plan.Report) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSimulateFMSParallel loads the warm FMS entry from
// GOMAXPROCS client goroutines and reports the service-level numbers the
// load tier tracks: sustained req/s and the p99 request latency measured
// by the server's own histogram.
func BenchmarkServeSimulateFMSParallel(b *testing.B) {
	s, body := benchServer(b, "fms", 1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			serveSimulate(b, s, body)
		}
	})
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "req/s")
	}
	b.ReportMetric(s.metrics.SimulateLatency.Quantile(0.99), "p99-ns")
}

// BenchmarkServeSimulateScale1kWarm exercises the warm path on a
// 1000-process synthetic network — the cache entry here is ~100x the
// cost of an app entry, so this also keeps the cost accounting honest.
func BenchmarkServeSimulateScale1kWarm(b *testing.B) {
	s, body := benchServer(b, "scale:1k", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveSimulate(b, s, body)
	}
}

// BenchmarkServeAnalyzeWarm measures one warm /analyze at M=2 through the
// full handler stack: cache hit, the schedulability and happens-before
// passes on the cached entry, and the lint pass that reads them.
func BenchmarkServeAnalyzeWarm(b *testing.B) {
	for _, app := range []string{"signal", "fft", "fms"} {
		s := NewServer(Options{})
		body, err := json.Marshal(map[string]any{"app": app})
		if err != nil {
			b.Fatal(err)
		}
		analyze := func(b *testing.B) {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				b.Fatalf("analyze: status %d: %s", w.Code, w.Body.String())
			}
		}
		b.Run(app, func(b *testing.B) {
			analyze(b) // warm the cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				analyze(b)
			}
		})
	}
}

// BenchmarkServeCompileHit measures the floor of the serving layer: a
// /compile request answered entirely from the cache (no run at all).
func BenchmarkServeCompileHit(b *testing.B) {
	s := NewServer(Options{})
	body, err := json.Marshal(map[string]any{"app": "signal"})
	if err != nil {
		b.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		b.Fatalf("warm-up compile: status %d", w.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("compile: status %d", w.Code)
		}
	}
}

// BenchmarkModelDigest measures the content-addressing cost itself:
// canonical JSON export + sha256 of the FMS network.
func BenchmarkModelDigest(b *testing.B) {
	m, err := cli.LoadModel("fms")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.DigestNetwork(m.Net); err != nil {
			b.Fatal(err)
		}
	}
}

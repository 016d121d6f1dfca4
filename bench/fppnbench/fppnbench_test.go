package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

func draw(w *workload, seed int64, id, n int) []int {
	st := newStream(w, seed, id)
	out := make([]int, n)
	for k := range out {
		out[k], _ = st.next()
	}
	return out
}

func TestStreamsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := draw(w, 1, 0, 500), draw(w, 1, 0, 500)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different streams", w.name)
		}
		if slices.Equal(a, draw(w, 2, 0, 500)) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
		if slices.Equal(a, draw(w, 1, 1, 500)) {
			t.Errorf("%s: both clients got the same stream", w.name)
		}
		for _, i := range a {
			if i < 0 || i >= len(w.variants) {
				t.Fatalf("%s: variant index %d out of range", w.name, i)
			}
		}
	}
}

func TestColdPassesNeverRepeatAKey(t *testing.T) {
	w := workloadNamed("compile-cold")
	if len(w.variants) != 195 {
		t.Fatalf("grid has %d keys, want 195", len(w.variants))
	}
	st := newStream(w, 7, 0)
	for pass := 0; pass < 3; pass++ {
		seen := make(map[string]bool)
		for end := false; !end; {
			var i int
			i, end = st.next()
			k := w.variants[i].compileKey()
			if seen[k] {
				t.Fatalf("pass %d repeats %s", pass, k)
			}
			seen[k] = true
		}
		if len(seen) != len(w.variants) {
			t.Fatalf("pass %d covered %d keys, want %d", pass, len(seen), len(w.variants))
		}
	}
}

func TestQuantileAndTail(t *testing.T) {
	d := make([]time.Duration, 100)
	for i := range d {
		d[i] = time.Duration(100 - i)
	}
	slices.Sort(d)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.01, 1}, {0.5, 50}, {0.99, 99}, {1, 100}} {
		if got := quantile(d, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	for _, c := range []struct{ n, want int }{{1000, 10}, {999, 9}, {100, 1}, {5000, 50}} {
		if got := tailSamples(0.99, c.n); got != c.want {
			t.Errorf("tailSamples(0.99, %d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestP99Groups(t *testing.T) {
	for _, c := range []struct {
		counts []int
		want   int
	}{
		{[]int{9000, 9000, 9000, 9000}, 4},
		{[]int{600, 600, 600, 600, 600}, 2},
		{[]int{250, 250, 250, 250, 250, 250, 250, 250, 250}, 2},
		{[]int{100, 100}, 1},
		{[]int{5000, 10, 5000}, 2},
		{[]int{5000, 10}, 1},
	} {
		if got := p99Groups(c.counts); got != c.want {
			t.Errorf("p99Groups(%v) = %d, want %d", c.counts, got, c.want)
		}
	}
}

// A reply that differs from its reference in one field counts as failed.
func TestTamperedBodyCountsAsFailure(t *testing.T) {
	w := workloadNamed("simulate-warm-apps")
	or, err := newOracle(w)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: w, seed: 1, or: or}
	defer b.close()
	if _, err := b.setup(0, true); err != nil {
		t.Fatal(err)
	}
	srv := b.warm.srv
	tampered := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		rw.WriteHeader(rec.Code)
		rw.Write(bytes.Replace(rec.Body.Bytes(), []byte(`"misses": 0`), []byte(`"misses": 7`), 1))
	}))
	b.close()
	b.warm = &target{srv: srv, ts: tampered}
	b.conns = []*conn{dial(b.warm), dial(b.warm)}

	m := b.measure(100 * time.Millisecond)
	if m.attempted == 0 || m.failed != m.attempted {
		t.Fatalf("%d of %d tampered replies counted as failed", m.failed, m.attempted)
	}
	if m.firstErr == nil || !strings.Contains(m.firstErr.Error(), "differs from the reference") {
		t.Fatalf("first error %v", m.firstErr)
	}
}

// Every workload runs clean at a short window, traced, and prints the
// output the benchmark's contract asks for.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts every workload")
	}
	for _, w := range workloads {
		res, err := run(w, 1, config{setups: 1, window: 250 * time.Millisecond, traceWindow: 250 * time.Millisecond})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		m := res.m
		if m.attempted == 0 || m.failed != 0 {
			t.Fatalf("%s: %d of %d requests failed; first: %v", w.name, m.failed, m.attempted, m.firstErr)
		}
		for _, x := range res.endToEnd() {
			if !(x.value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, x.name, x.value)
			}
		}
		layers := make(map[string]float64)
		for _, x := range res.perLayer() {
			layers[x.name] = x.value
		}
		if len(layers) != 56 {
			t.Errorf("%s: %d per-layer metrics, want 56", w.name, len(layers))
		}
		wantHits := 1.0
		if w.cold {
			wantHits = 0
		}
		if got := layers["serve.cache.hit_ratio"]; got != wantHits {
			t.Errorf("%s: hit ratio %v, want %v", w.name, got, wantHits)
		}
		if got := layers["trace.fidelity"]; got != 1 {
			t.Errorf("%s: trace fidelity %v, want 1", w.name, got)
		}

		// report refuses a p99 without ten samples beyond it; the contract
		// checks are on the summary line, so pad the sample count.
		m.p99MinGroup = max(m.p99MinGroup, 1000)
		var out bytes.Buffer
		if err := report(&out, w.name, res, res.endToEnd()); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var s map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", w.name, err)
		}
		if len(s) != 4 || s["correct"] == nil || s["attempted"] == nil || s["failed"] == nil || s["metrics"] == nil {
			t.Errorf("%s: summary keys %s", w.name, lines[len(lines)-1])
		}
	}
}

package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// clients is the closed loop's client count: fppnd's callers (CLIs, CI
// scripts) each wait for their reply, and two clients keep both cores of
// the reference machine busy without queueing behind each other.
const clients = 2

// failedLatency stands in for the latency of a failed request: a failure
// misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// target is one fppnd server behind a loopback listener.
type target struct {
	srv *serve.Server
	ts  *httptest.Server
}

func newTarget(opts serve.Options) *target {
	srv := serve.NewServer(opts)
	return &target{srv: srv, ts: httptest.NewServer(srv)}
}

func (t *target) close() { t.ts.Close() }

// conn is one client's keep-alive connection to a target.
type conn struct {
	t   *target
	hc  *http.Client
	buf bytes.Buffer
}

func dial(t *target) *conn {
	return &conn{t: t, hc: &http.Client{Transport: &http.Transport{}, Timeout: time.Minute}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// post sends one request body and returns the reply. The body aliases
// the connection's buffer until the next post.
func (c *conn) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.t.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// open establishes the connection, so that the first measured request
// does not pay for it.
func (c *conn) open() error {
	resp, err := c.hc.Get(c.t.ts.URL + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// exchange sends a variant and checks the reply against its reference.
func (c *conn) exchange(v *variant, ref []byte) error {
	status, body, err := c.post(v.Path, v.body)
	if err != nil {
		return fmt.Errorf("%v: %w", v, err)
	}
	return checkReply(v, status, body, ref)
}

// checkReply accepts a reply only when it is a 200 whose body equals the
// variant's reference byte for byte.
func checkReply(v *variant, status int, body, ref []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%v: status %d: %s", v, status, bytes.TrimSpace(body))
	}
	if !bytes.Equal(body, ref) {
		return fmt.Errorf("%v: body differs from the reference:\n%s", v, body)
	}
	return nil
}

// sample is one completed request.
type sample struct {
	end time.Duration // completion time, from the start of the window
	lat time.Duration
}

// clientRun is what one closed-loop client measured.
type clientRun struct {
	samples  []sample
	failed   int
	firstErr error
	// cache sums the counters of the servers a cold client used.
	cache serve.CacheStats
	// last is a cold client's final server, kept alive until the heap has
	// been read.
	last *target
}

func (r *clientRun) record(start, sent time.Time, err error) {
	now := time.Now()
	lat := now.Sub(sent)
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		lat = failedLatency
	}
	r.samples = append(r.samples, sample{end: now.Sub(start), lat: lat})
}

// addCache adds sign times the reported counters of s to dst.
func addCache(dst *serve.CacheStats, s serve.CacheStats, sign int64) {
	dst.Hits += sign * s.Hits
	dst.Misses += sign * s.Misses
	dst.Coalesced += sign * s.Coalesced
	dst.Evictions += sign * s.Evictions
	dst.StatesCreated += sign * s.StatesCreated
}

// warmClient sends the client's stream to the shared warm server until
// the deadline.
func (b *bench) warmClient(cn *conn, id int, start, deadline time.Time, out *clientRun) {
	st := newStream(b.w, b.seed, id)
	for time.Now().Before(deadline) {
		i, _ := st.next()
		sent := time.Now()
		err := cn.exchange(&b.w.variants[i], b.refs[i])
		out.record(start, sent, err)
	}
}

// coldClient walks whole passes of the grid on a server of its own and
// replaces the server after each pass. It stops at the first pass
// boundary after the deadline, so its last server holds the whole grid
// when the heap is read.
func (b *bench) coldClient(id int, start, deadline time.Time, out *clientRun) {
	st := newStream(b.w, b.seed, id)
	t, cn, err := freshTarget(serve.Options{})
	for err == nil {
		for end := false; !end; {
			var i int
			i, end = st.next()
			sent := time.Now()
			xerr := cn.exchange(&b.w.variants[i], b.refs[i])
			out.record(start, sent, xerr)
		}
		addCache(&out.cache, t.srv.Stats().Cache, 1)
		cn.close()
		if !time.Now().Before(deadline) {
			out.last = t
			return
		}
		t.close()
		t, cn, err = freshTarget(serve.Options{})
	}
	out.record(start, time.Now(), fmt.Errorf("start a server: %w", err))
}

// freshTarget starts a server and opens a connection to it.
func freshTarget(opts serve.Options) (*target, *conn, error) {
	t := newTarget(opts)
	cn := dial(t)
	if err := cn.open(); err != nil {
		t.close()
		return nil, nil, err
	}
	return t, cn, nil
}

// measured is the outcome of the closed-loop window.
type measured struct {
	attempted, failed int
	firstErr          error
	// samples counts the requests that completed inside the window;
	// p99Groups is how many groups of slices the p99 is the median of,
	// and p99MinGroup the sample count of the smallest one.
	samples, p99Groups, p99MinGroup int
	throughput                      float64 // requests per second
	p50us, p99us, cpuUsPerReq       float64
	allocKBPerReq                   float64
	heapMB                          float64
	cache                           serve.CacheStats // deltas over the run
	gcCPUShare                      float64
	gcCyclesPerKReq                 float64
}

// measure runs the closed loop for window and reads every end-to-end
// metric of it. The window is cut into one-second slices; throughput,
// CPU per request and p50 are medians over the slices, and p99 is the
// median over the shortest runs of consecutive slices that leave ten
// samples beyond it. A burst of load from outside the benchmark then
// moves a few slices, not the result.
func (b *bench) measure(window time.Duration) *measured {
	runs := make([]clientRun, clients)
	var cache0 serve.CacheStats
	if !b.w.cold {
		cache0 = b.warm.srv.Stats().Cache
	}
	nSlices := max(1, int(window/time.Second))
	sliceLen := window / time.Duration(nSlices)
	bounds := make([]time.Duration, nSlices+1) // slice k is [bounds[k], bounds[k+1])
	cpus := make([]time.Duration, nSlices+1)   // CPU time at each bound

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := readGC()
	start := time.Now()
	cpus[0] = cpuTime()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) { // fppnlint:ignore -- closed-loop benchmark clients
			defer wg.Done()
			if b.w.cold {
				b.coldClient(c, start, deadline, &runs[c])
			} else {
				b.warmClient(b.conns[c], c, start, deadline, &runs[c])
			}
		}(c)
	}
	for k := 1; k <= nSlices; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * sliceLen)))
		bounds[k], cpus[k] = time.Since(start), cpuTime()
	}
	wg.Wait()
	gc1 := readGC()
	runtime.ReadMemStats(&ms1)

	m := &measured{}
	lats := make([][]time.Duration, nSlices)
	for c := range runs {
		r := &runs[c]
		for _, s := range r.samples {
			if k := sort.Search(nSlices, func(k int) bool { return bounds[k+1] > s.end }); k < nSlices {
				lats[k] = append(lats[k], s.lat)
			}
		}
		m.attempted += len(r.samples)
		m.failed += r.failed
		if m.firstErr == nil {
			m.firstErr = r.firstErr
		}
		addCache(&m.cache, r.cache, 1)
		r.samples = nil
	}
	if !b.w.cold {
		addCache(&m.cache, b.warm.srv.Stats().Cache, 1)
		addCache(&m.cache, cache0, -1)
	}

	var rps, cpu, p50 []float64
	counts := make([]int, nSlices)
	for k, l := range lats {
		counts[k] = len(l)
		m.samples += len(l)
		rps = append(rps, float64(len(l))/(bounds[k+1]-bounds[k]).Seconds())
		if len(l) > 0 {
			slices.Sort(l)
			p50 = append(p50, micros(quantile(l, 0.5)))
			cpu = append(cpu, micros(cpus[k+1]-cpus[k])/float64(len(l)))
		}
	}
	m.throughput, m.p50us, m.cpuUsPerReq = median(rps), median(p50), median(cpu)
	var p99 []float64
	m.p99Groups = p99Groups(counts)
	m.p99MinGroup = m.samples
	for j := 0; j < m.p99Groups; j++ {
		var g []time.Duration
		for k := j * nSlices / m.p99Groups; k < (j+1)*nSlices/m.p99Groups; k++ {
			g = append(g, lats[k]...)
		}
		m.p99MinGroup = min(m.p99MinGroup, len(g))
		if len(g) > 0 {
			slices.Sort(g)
			p99 = append(p99, micros(quantile(g, 0.99)))
		}
	}
	m.p99us = median(p99)
	if m.attempted > 0 {
		m.allocKBPerReq = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(m.attempted)
		m.gcCyclesPerKReq = float64(gc1.cycles-gc0.cycles) * 1000 / float64(m.attempted)
	}
	if busy := (gc1.total - gc1.idle) - (gc0.total - gc0.idle); busy > 0 {
		m.gcCPUShare = (gc1.gc - gc0.gc) / busy
	}

	// What survives two collections is the servers' caches: the first
	// collection empties the sync.Pools into their victim caches, the
	// second drops those.
	lats = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	m.heapMB = float64(ms1.HeapAlloc) / (1 << 20)
	for c := range runs {
		if runs[c].last != nil {
			runs[c].last.close()
		}
	}
	return m
}

// p99Groups returns into how many runs of consecutive slices the window
// can be cut such that every run has at least minTail samples beyond its
// 99th percentile; 1 when even the whole window has not.
func p99Groups(counts []int) int {
	for g := len(counts); g > 1; g-- {
		ok := true
		for j := 0; j < g && ok; j++ {
			n := 0
			for k := j * len(counts) / g; k < (j+1)*len(counts)/g; k++ {
				n += counts[k]
			}
			ok = tailSamples(0.99, n) >= minTail
		}
		if ok {
			return g
		}
	}
	return 1
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type gcSnapshot struct {
	gc, total, idle float64 // CPU seconds
	cycles          uint64
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readGC() gcSnapshot {
	metrics.Read(gcSamples)
	return gcSnapshot{
		gc:     gcSamples[0].Value.Float64(),
		total:  gcSamples[1].Value.Float64(),
		idle:   gcSamples[2].Value.Float64(),
		cycles: gcSamples[3].Value.Uint64(),
	}
}

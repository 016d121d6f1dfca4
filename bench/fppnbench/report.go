package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd returns the metrics a client of fppnd sees.
func (r *result) endToEnd() []metric {
	m := r.m
	return []metric{
		{"setup_s", median(r.setup).Seconds(), "s"},
		{"throughput_rps", m.throughput, "1/s"},
		{"latency_p50_us", m.p50us, "us"},
		{"latency_p99_us", m.p99us, "us"},
		{"cpu_us_per_req", m.cpuUsPerReq, "us"},
		{"alloc_kb_per_req", m.allocKBPerReq, "KiB"},
		{"heap_mb", m.heapMB, "MiB"},
	}
}

// perLayer returns the traced run's span metrics and the measured run's
// layer counters.
func (r *result) perLayer() []metric {
	t, m := r.trace, r.m
	var total time.Duration // Σ http.roundtrip, the base of every share
	for i := range t.reqs {
		total += t.reqs[i].d[spRoundtrip]
	}
	share := func(busy time.Duration) float64 {
		if total <= 0 {
			return 0
		}
		return float64(busy) / float64(total)
	}
	// summarize returns the median and the sum of f over the traced
	// requests that have the span.
	summarize := func(has func(*spanSet) bool, f func(*spanSet) time.Duration) (time.Duration, time.Duration) {
		var ds []time.Duration
		var busy time.Duration
		for i := range t.reqs {
			if s := &t.reqs[i]; has(s) {
				ds = append(ds, f(s))
				busy += f(s)
			}
		}
		if len(ds) == 0 {
			return 0, 0
		}
		return median(ds), busy
	}

	var out []metric
	for sp := span(0); sp < numSpans; sp++ {
		p50, busy := summarize(func(s *spanSet) bool { return s.seen[sp] }, func(s *spanSet) time.Duration { return s.d[sp] })
		allocs := 0.0
		if t.calls[sp] > 0 {
			allocs = float64(t.allocs[sp]) / float64(t.calls[sp])
		}
		out = append(out,
			metric{spanNames[sp] + ".p50_us", micros(p50), "us"},
			metric{spanNames[sp] + ".share", share(busy), "ratio"},
			metric{spanNames[sp] + ".allocs", allocs, "objects/call"})
	}
	all := func(*spanSet) bool { return true }
	selfP50, selfBusy := summarize(all, func(s *spanSet) time.Duration { return s.d[spHandler] - s.stages() })
	trP50, trBusy := summarize(all, func(s *spanSet) time.Duration { return s.d[spRoundtrip] - s.d[spHandler] })

	lookups := m.cache.Hits + m.cache.Misses + m.cache.Coalesced
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(m.cache.Hits) / float64(lookups)
	}
	fidelity := 0.0
	if t.compared > 0 {
		fidelity = float64(t.matched) / float64(t.compared)
	}
	return append(out,
		metric{"serve.self.p50_us", micros(selfP50), "us"},
		metric{"serve.self.share", share(selfBusy), "ratio"},
		metric{"http.transport.p50_us", micros(trP50), "us"},
		metric{"http.transport.share", share(trBusy), "ratio"},
		metric{"serve.cache.hit_ratio", hitRatio, "ratio"},
		metric{"serve.cache.evictions", float64(m.cache.Evictions), "count"},
		metric{"serve.cache.coalesced", float64(m.cache.Coalesced), "count"},
		metric{"serve.states_created", float64(m.cache.StatesCreated), "count"},
		metric{"taskgraph.jobs", r.sizes.jobs, "jobs"},
		metric{"plan.entries_per_req", r.sizes.entries, "entries"},
		metric{"sched.feasible_ratio", r.sizes.feasible, "ratio"},
		metric{"runtime.gc_cpu_share", m.gcCPUShare, "ratio"},
		metric{"runtime.gc_cycles_per_kreq", m.gcCyclesPerKReq, "cycles/kreq"},
		metric{"trace.fidelity", fidelity, "ratio"},
	)
}

// summary is the last line of the output.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric as "workload metric value unit", then the
// JSON summary as the last line.
func report(out io.Writer, workload string, r *result, metrics []metric) error {
	m := r.m
	if tail := tailSamples(0.99, m.p99MinGroup); tail < minTail {
		return fmt.Errorf("latency_p99_us has %d samples beyond it (of %d); lengthen the window", tail, m.p99MinGroup)
	}
	fmt.Fprintf(out, "%s latency_p99_us.samples %d count\n", workload, m.samples)
	fmt.Fprintf(out, "%s latency_p99_us.groups %d count\n", workload, m.p99Groups)
	fmt.Fprintf(out, "%s error_ratio %s ratio\n", workload, fmtFloat(float64(m.failed)/float64(m.attempted)))
	if r.trace != nil {
		fmt.Fprintf(out, "%s trace.requests %d count\n", workload, len(r.trace.reqs))
	}
	s := summary{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metricJSON, len(metrics)),
	}
	for _, x := range metrics {
		fmt.Fprintf(out, "%s %s %s %s\n", workload, x.name, fmtFloat(x.value), x.unit)
		s.Metrics[x.name] = metricJSON{x.value, x.unit}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

package core

// This file holds the module's one copy of the zero-delay order of Section
// II: PriorityOrder is the linear extension of a priority DAG that orders
// simultaneous jobs, and JobOrder is the total job order <_J built on it.
// Task-graph derivation (FP' over PN'), the zero-delay executor, the
// uniprocessor baseline and the static buffer sweep all read them.

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/rational"
)

// JobRef identifies the k-th job of a process together with its invocation
// time stamp.
type JobRef struct {
	Proc string
	K    int64
	Time Time
}

// String formats the job reference as p[k]@t.
func (j JobRef) String() string { return fmt.Sprintf("%s[%d]@%v", j.Proc, j.K, j.Time) }

// PriorityOrder returns a linear extension of the priority DAG over the
// nodes 0..len(names)-1, where each edge {hi, lo} puts hi before lo.
// Kahn's algorithm breaks ties the same way for every caller: the ready
// queue starts with the sources in index order, each step takes its front
// (with seed >= 0, an entry picked by splitmix64 seeded with seed), and the
// nodes a step unblocks join the back in name order.
//
// rank[i] is node i's position in the extension. ok is false when the
// graph has a cycle; rank is then -1 for every node on or behind one.
func PriorityOrder(names []string, edges [][2]int, seed int64) (rank []int, ok bool) {
	// Successor lists in one slice: node v's are succ[start[v]:start[v+1]].
	n := len(names)
	indeg := make([]int, n)
	start := make([]int, n+1)
	for _, e := range edges {
		start[e[0]+1]++
		indeg[e[1]]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	rank = make([]int, n)
	copy(rank, start) // each node's next free successor slot, until ranked
	succ := make([]int, len(edges))
	for _, e := range edges {
		succ[rank[e[0]]] = e[1]
		rank[e[0]]++
	}
	var rng *splitmix64
	if seed >= 0 {
		rng = newSplitmix64(uint64(seed))
	}
	ready := make([]int, 0, n)
	for v, d := range indeg {
		rank[v] = -1
		if d == 0 {
			ready = append(ready, v)
		}
	}
	byName := func(a, b int) int { return strings.Compare(names[a], names[b]) }
	// ready[head:] is the queue; taking entry i shifts the entries before
	// it back by one, keeping the rest in queue order.
	for head := 0; head < len(ready); head++ {
		i := head
		if rng != nil {
			i += rng.Intn(len(ready) - head)
		}
		v := ready[i]
		copy(ready[head+1:i+1], ready[head:i])
		rank[v] = head
		tail := len(ready)
		for _, lo := range succ[start[v]:start[v+1]] {
			if indeg[lo]--; indeg[lo] == 0 {
				ready = append(ready, lo)
			}
		}
		slices.SortFunc(ready[tail:], byName)
	}
	return rank, len(ready) == n
}

// fpOrder is PriorityOrder over the network's processes and FP edges.
func (n *Network) fpOrder(seed int64) (rank []int, ok bool) {
	return PriorityOrder(n.procOrder, n.PriorityPids(), seed)
}

// FPRank returns the position of every process (indexed as Processes) in
// a linear extension of the functional-priority DAG. Seed < 0 gives the
// deterministic default order; different non-negative seeds give
// different FP-respecting orders, all of which must produce the same
// outputs (Proposition 2.1).
func (n *Network) FPRank(seed int64) ([]int, error) {
	rank, ok := n.fpOrder(seed)
	if !ok {
		return nil, fmt.Errorf("core: functional priority graph has a cycle")
	}
	return rank, nil
}

// Job is one job of the zero-delay order <_J: process Pid (an index into
// Network.Processes) invoked at (Frame + Num/Den)·H, Num/Den of the way
// into hyperperiod frame Frame, with H the Order's hyperperiod.
type Job struct {
	Pid, Frame int
	Num, Den   int64
	rank       int
}

// compareJobs orders jobs by frame, then offset, compared by exact 128-bit
// cross-multiplication, then rank. It ties only identical jobs: burst
// jobs of one process at one instant.
func compareJobs(a, b Job) int {
	if a.Frame != b.Frame {
		return a.Frame - b.Frame
	}
	ah, al := bits.Mul64(uint64(a.Num), uint64(b.Den))
	bh, bl := bits.Mul64(uint64(b.Num), uint64(a.Den))
	switch {
	case ah != bh:
		return cmp.Compare(ah, bh)
	case al != bl:
		return cmp.Compare(al, bl)
	}
	return a.rank - b.rank
}

// instant is a job's invocation time as a job ranked before every
// process: compareJobs(j, instant(i)) < 0 exactly when j is invoked before i.
func instant(j Job) Job { return Job{Frame: j.Frame, Num: j.Num, Den: j.Den, rank: -1} }

// Order is the zero-delay job order <_J of a network over [0, horizon).
type Order struct {
	Jobs  []Job
	H     Time // the hyperperiod of the raw periods, the unit of job offsets
	procs []*Process
}

// JobOrder returns the zero-delay job order <_J of the network over
// [0, horizon): jobs by invocation time, simultaneous jobs by rank (one
// entry per process, a permutation; lower runs first), burst jobs of one
// process adjacent.
//
// Burst k of periodic process p falls at k·H/n_p with n_p = H/T_p, so one
// frame's periodic order is built once, without a common tick, and
// replayed every frame; the last frame of a horizon that is not a
// multiple of H replays a prefix. Sporadic events are validated (see
// sporadicEvents) and merged in by the same exact comparison.
func JobOrder(net *Network, rank []int, horizon Time, events map[string][]Time) (Order, error) {
	h, err := Hyperperiod(net, nil)
	if err != nil {
		return Order{}, err
	}
	procs := net.Processes()
	times, err := sporadicEvents(net, procs, horizon, events)
	if err != nil {
		return Order{}, err
	}
	// The frame order covers [0, span): all of it unless the horizon ends
	// inside the first frame.
	span := h.Min(horizon)
	// Each periodic process's jobs in the frame form a run already in
	// offset order, so the frame is the merge of the runs, drawn from a
	// min-heap of each run's next job.
	var runs []frameRun
	var evs []Job
	size := 0
	for pid, p := range procs {
		r := rank[pid]
		if p.Gen.Kind == Periodic {
			n, count := h.Div(p.Period()).Num(), span.Div(p.Period()).Ceil()
			runs = append(runs, frameRun{Job{Pid: pid, Den: n, rank: r}, count, p.Burst()})
			size += int(count) * p.Burst()
		}
		for _, t := range times[pid] {
			f := t.FloorDiv(h)
			off := t.Sub(h.MulInt(f)).Div(h)
			evs = append(evs, Job{Pid: pid, Frame: int(f), Num: off.Num(), Den: off.Den(), rank: r})
		}
	}
	for i := len(runs)/2 - 1; i >= 0; i-- {
		siftDown(runs, i)
	}
	raw := make([]Job, 0, size)
	for len(runs) > 0 {
		top := &runs[0]
		for b := 0; b < top.burst; b++ {
			raw = append(raw, top.next)
		}
		if top.next.Num++; top.next.Num == top.end {
			runs[0] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
		siftDown(runs, 0)
	}
	// compareJobs ties only identical jobs, so an unstable sort suffices.
	slices.SortFunc(evs, compareJobs)

	// The last frame keeps the jobs at offsets below rest = horizon/h −
	// (frames − 1), a prefix of the frame order.
	q := horizon.Div(h)
	frames := q.Ceil()
	rest := q.Sub(rational.FromInt(frames - 1))
	last := instant(Job{Num: rest.Num(), Den: rest.Den()})
	lastLen := sort.Search(len(raw), func(i int) bool { return compareJobs(raw[i], last) >= 0 })

	jobs := make([]Job, 0, int(frames-1)*len(raw)+lastLen+len(evs))
	e := 0
	for f := 0; f < int(frames); f++ {
		frame := raw
		if f == int(frames)-1 {
			frame = raw[:lastLen]
		}
		for _, j := range frame {
			j.Frame = f
			for ; e < len(evs) && compareJobs(evs[e], j) < 0; e++ {
				jobs = append(jobs, evs[e])
			}
			jobs = append(jobs, j)
		}
	}
	return Order{Jobs: append(jobs, evs[e:]...), H: h, procs: procs}, nil
}

// frameRun is the jobs of one periodic process in a frame: next, then
// the following offsets up to end/next.Den, burst jobs each.
type frameRun struct {
	next  Job
	end   int64
	burst int
}

// siftDown restores the min-heap order of runs (by next job) below i.
func siftDown(runs []frameRun, i int) {
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(runs) && compareJobs(runs[c].next, runs[least].next) < 0 {
				least = c
			}
		}
		if least == i {
			return
		}
		runs[i], runs[least] = runs[least], runs[i]
		i = least
	}
}

// Refs returns each job's JobRef: its process, its 1-based invocation
// count and its invocation time, built once per distinct instant.
func (o Order) Refs() []JobRef {
	refs := make([]JobRef, len(o.Jobs))
	counts := make([]int64, len(o.procs))
	var t Time
	for i, j := range o.Jobs {
		if i == 0 || compareJobs(o.Jobs[i-1], instant(j)) < 0 {
			t = o.H.Mul(rational.New(j.Num, j.Den).Add(rational.FromInt(int64(j.Frame))))
		}
		counts[j.Pid]++
		refs[i] = JobRef{Proc: o.procs[j.Pid].Name, K: counts[j.Pid], Time: t}
	}
	return refs
}

// sporadicEvents validates the sporadic event times supplied for net over
// [0, horizon) — each process's (m, T) constraint, the horizon, and that
// every named process exists and is sporadic — and returns them sorted, one
// slice per process of procs (net's processes; nil when periodic).
func sporadicEvents(net *Network, procs []*Process, horizon Time, sporadicEvents map[string][]Time) ([][]Time, error) {
	if horizon.Sign() <= 0 {
		return nil, fmt.Errorf("core: non-positive horizon %v", horizon)
	}
	out := make([][]Time, len(procs))
	for pid, p := range procs {
		if p.Gen.Kind != Sporadic {
			continue
		}
		times := sporadicEvents[p.Name]
		sorted := slices.Clone(times)
		slices.SortFunc(sorted, Time.Cmp)
		if err := p.Gen.CheckSporadic(sorted); err != nil {
			return nil, fmt.Errorf("core: process %q: %w", p.Name, err)
		}
		for _, t := range sorted {
			if !t.Less(horizon) {
				return nil, fmt.Errorf("core: process %q: sporadic event at %v is beyond horizon %v",
					p.Name, t, horizon)
			}
		}
		out[pid] = sorted
	}
	for proc := range sporadicEvents {
		p := net.Process(proc)
		if p == nil {
			return nil, fmt.Errorf("core: sporadic events for unknown process %q", proc)
		}
		if !p.IsSporadic() {
			return nil, fmt.Errorf("core: sporadic events supplied for non-sporadic process %q", proc)
		}
	}
	return out, nil
}

// Hyperperiod returns the LCM of the periods of all processes (using the
// user period for sporadic processes replaced by servers when substitute is
// non-nil; pass nil to use raw periods). An LCM that overflows int64 is an
// error.
func Hyperperiod(net *Network, substitute map[string]Time) (Time, error) {
	var periods []Time
	for _, p := range net.Processes() {
		t := p.Period()
		if substitute != nil {
			if s, ok := substitute[p.Name]; ok {
				t = s
			}
		}
		if t.Sign() <= 0 {
			return rational.Zero, fmt.Errorf("core: process %q has non-positive period %v", p.Name, t)
		}
		periods = append(periods, t)
	}
	if len(periods) == 0 {
		return rational.Zero, fmt.Errorf("core: network %q has no processes", net.Name)
	}
	h, ok := rational.LcmAll(periods)
	if !ok {
		return rational.Zero, fmt.Errorf("core: hyperperiod of network %q overflows int64", net.Name)
	}
	return h, nil
}

// splitmix64 is a tiny deterministic pseudo-random generator (Steele,
// Lea & Flood, "Fast Splittable Pseudorandom Number Generators"). It
// replaces math/rand in this package: the deterministic compile pipeline
// must not depend on global or wall-clock-seeded randomness, and the
// fppnlint-go vettool enforces that ban. Seeded identically, it yields the
// same tie-break sequence on every platform.
type splitmix64 struct{ state uint64 }

func newSplitmix64(seed uint64) *splitmix64 {
	// Offset the seed so that seed 0 does not start at the fixed point.
	return &splitmix64{state: seed + 0x9e3779b97f4a7c15}
}

func (s *splitmix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform pseudo-random int in [0, n); n must be positive.
func (s *splitmix64) Intn(n int) int {
	if n <= 0 {
		panic("core: splitmix64.Intn with non-positive n")
	}
	return int(s.next() % uint64(n))
}

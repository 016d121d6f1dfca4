package core

// This file holds the module's one copy of the zero-delay order of Section
// II: PriorityOrder is the linear extension of a priority DAG that orders
// simultaneous jobs, and JobOrder is the total job order <_J built on it.
// Task-graph derivation (FP' over PN'), the zero-delay executor, the
// uniprocessor baseline and the static buffer sweep all read them.

import (
	"cmp"
	"fmt"
	"slices"
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

// The order's guards. A packed <_J key is t<<rankBits | rank: ranks are
// a permutation of the processes and t lies below rational.MaxTick =
// 2^40, so the key stays below 2^60 and sorting the keys IS the (t, rank)
// lexicographic sort, over plain int64s. A frame holds at most
// MaxFrameJobs jobs (task-graph derivation shares the bound), at least one
// per process. The horizon and the sporadic event times lie within
// maxOrderTick ticks, so the rational validation of events cannot
// overflow, and an order holds at most maxOrderJobs jobs.
const (
	rankBits     = 20
	MaxFrameJobs = 1 << rankBits
	maxOrderTick = int64(1) << 62
	maxOrderJobs = 1 << 32
)

// key packs an invocation at tick t of a process with the given rank.
func key(t int64, rank int) int64 { return t<<rankBits | int64(rank) }

// SortFrame returns one frame's jobs in <_J order as each job's process
// and invocation tick: process p fires burst[p] jobs at every multiple of
// period[p] ticks below span (within rational.MaxTick), jobs in all, and
// simultaneous jobs follow rank, a permutation of at most 1<<rankBits
// processes. Burst jobs of one process at one instant share a key, so the
// unstable sort is indistinguishable from a stable one.
func SortFrame(period []int64, burst, rank []int, span int64, jobs int) (pid []int32, tick []int64) {
	keys := make([]int64, 0, jobs)
	pidOfRank := make([]int32, len(rank))
	for p, b := range burst {
		pidOfRank[rank[p]] = int32(p)
		for t := int64(0); b > 0 && t < span; t += period[p] {
			for range b {
				keys = append(keys, key(t, rank[p]))
			}
		}
	}
	slices.Sort(keys)
	pid, tick = make([]int32, len(keys)), make([]int64, len(keys))
	for i, k := range keys {
		pid[i], tick[i] = pidOfRank[k&(1<<rankBits-1)], k>>rankBits
	}
	return pid, tick
}

// Job is one job of the zero-delay order <_J: process Pid (an index into
// Network.Processes) invoked Offset ticks into hyperperiod frame Frame.
type Job struct {
	Pid, Frame int
	Offset     int64
}

// sameInstant reports whether j and k are invoked at the same time.
func (j Job) sameInstant(k Job) bool { return j.Frame == k.Frame && j.Offset == k.Offset }

// Order is the zero-delay job order <_J of a network over [0, horizon);
// offsets and H, the hyperperiod of the raw periods, are ticks of Scale.
type Order struct {
	Jobs  []Job
	Scale rational.Scale
	H     int64
	procs []*Process
}

// JobOrder returns the zero-delay job order <_J of the network over
// [0, horizon): jobs by invocation time, simultaneous jobs by rank (one
// entry per process, a permutation; lower runs first), burst jobs of one
// process adjacent.
//
// The raw periods, the sporadic event times and the horizon are lowered
// onto one timescale. One frame's periodic jobs, sorted by SortFrame, are
// replayed every frame (the last replays a prefix), and the validated
// sporadic events (see sporadicEvents) merge in by the same packed key.
// Timing beyond the guards is an error naming the network.
func JobOrder(net *Network, rank []int, horizon Time, events map[string][]Time) (Order, error) {
	return jobOrder(net, rank, horizon, 0, events)
}

// JobOrderFrames is JobOrder over frames hyperperiods of the raw periods.
func JobOrderFrames(net *Network, rank []int, frames int, events map[string][]Time) (Order, error) {
	return jobOrder(net, rank, rational.Zero, frames, events)
}

// jobOrder is JobOrder, over [0, frames·H) when frames is positive.
func jobOrder(net *Network, rank []int, horizon Time, frames int, events map[string][]Time) (Order, error) {
	h, err := Hyperperiod(net, nil)
	if err != nil {
		return Order{}, err
	}
	if frames <= 0 && horizon.Sign() <= 0 {
		return Order{}, fmt.Errorf("core: non-positive horizon %v", horizon)
	}
	procs := net.Processes()
	if len(procs) > 1<<rankBits {
		return Order{}, fmt.Errorf("core: network %q has %d processes, more than the order's %d", net.Name, len(procs), 1<<rankBits)
	}
	periods := make([]Time, len(procs))
	groups := [][]Time{periods, {horizon}}
	for pid, p := range procs {
		periods[pid] = p.Period()
		if p.IsSporadic() {
			groups = append(groups, events[p.Name])
		}
	}
	sc, ok := rational.CommonScale(groups...)
	ht, okH := sc.GuardedTicks(h)
	if !ok || !okH {
		return Order{}, errOrderTimescale(net, "the hyperperiod %vs", h)
	}
	end, ok := sc.Ticks(horizon) // the horizon in ticks
	if frames > 0 {
		if end, ok = int64(frames)*ht, int64(frames) <= maxOrderTick/ht; !ok {
			return Order{}, errOrderTimescale(net, "a horizon of %d hyperperiods", frames)
		}
		horizon = sc.FromTicks(end)
	}
	if !ok || end > maxOrderTick {
		return Order{}, errOrderTimescale(net, "the horizon %vs", horizon)
	}

	// One frame's periodic jobs, or those below a horizon inside it.
	span := min(ht, end)
	period := make([]int64, len(procs))
	burst := make([]int, len(procs))
	n := 0
	for pid, p := range procs {
		if p.Gen.Kind == Periodic {
			period[pid], _ = sc.Ticks(p.Period()) // a divisor of H
			burst[pid] = p.Burst()
			if n += int(min((span-1)/period[pid]+1, MaxFrameJobs+1)) * min(burst[pid], MaxFrameJobs+1); n > MaxFrameJobs {
				return Order{}, fmt.Errorf("core: network %q: a hyperperiod of its zero-delay order holds more than %d jobs", net.Name, MaxFrameJobs)
			}
		}
	}
	times, err := sporadicEvents(net, procs, sc, horizon, events)
	if err != nil {
		return Order{}, err
	}
	pids, ticks := SortFrame(period, burst, rank, span, n)
	var evs []Job
	for pid, ts := range times {
		for _, t := range ts {
			evs = append(evs, Job{Pid: pid, Frame: int(t / ht), Offset: t % ht})
		}
	}
	before := func(a, b Job) int {
		return cmp.Or(cmp.Compare(a.Frame, b.Frame), cmp.Compare(key(a.Offset, rank[a.Pid]), key(b.Offset, rank[b.Pid])))
	}
	slices.SortFunc(evs, before)

	// Frames 0..last; the last keeps the jobs below the horizon.
	last := (end - 1) / ht
	lastLen, _ := slices.BinarySearch(ticks, end-last*ht)
	if len(pids) > 0 && last > (maxOrderJobs-int64(len(evs)))/int64(len(pids)) {
		return Order{}, fmt.Errorf("core: network %q: a zero-delay order over %vs holds more than %d jobs", net.Name, horizon, int64(maxOrderJobs))
	}
	jobs := make([]Job, 0, int(last)*len(pids)+lastLen+len(evs))
	e := 0
	for f := range int(last) + 1 {
		for i := range len(pids) {
			if f == int(last) && i == lastLen {
				break
			}
			j := Job{Pid: int(pids[i]), Frame: f, Offset: ticks[i]}
			for ; e < len(evs) && before(evs[e], j) < 0; e++ {
				jobs = append(jobs, evs[e])
			}
			jobs = append(jobs, j)
		}
	}
	return Order{Jobs: append(jobs, evs[e:]...), Scale: sc, H: ht, procs: procs}, nil
}

// errOrderTimescale reports timing beyond the order's integer timescale.
func errOrderTimescale(net *Network, format string, args ...any) error {
	return fmt.Errorf("core: network %q: %s does not fit the integer timescale of its zero-delay order", net.Name, fmt.Sprintf(format, args...))
}

// Refs returns each job's JobRef: its process, its 1-based invocation
// count and its invocation time, built once per distinct instant.
func (o Order) Refs() []JobRef {
	refs := make([]JobRef, len(o.Jobs))
	counts := make([]int64, len(o.procs))
	var t Time
	for i, j := range o.Jobs {
		if i == 0 || !j.sameInstant(o.Jobs[i-1]) {
			t = o.Scale.FromTicks(int64(j.Frame)*o.H + j.Offset)
		}
		counts[j.Pid]++
		refs[i] = JobRef{Proc: o.procs[j.Pid].Name, K: counts[j.Pid], Time: t}
	}
	return refs
}

// sporadicEvents validates the sporadic event times supplied for net over
// [0, horizon) — each process's (m, T) constraint, the horizon, and that
// every named process exists and is sporadic — and returns them sorted, in
// ticks of sc, one slice per process of procs (net's processes; nil when
// periodic).
func sporadicEvents(net *Network, procs []*Process, sc rational.Scale, horizon Time, sporadicEvents map[string][]Time) ([][]int64, error) {
	out := make([][]int64, len(procs))
	for pid, p := range procs {
		if p.Gen.Kind != Sporadic {
			continue
		}
		sorted := slices.Clone(sporadicEvents[p.Name])
		slices.SortFunc(sorted, Time.Cmp)
		out[pid] = make([]int64, len(sorted))
		for i, t := range sorted {
			var ok bool
			if out[pid][i], ok = sc.Ticks(t); !ok || out[pid][i] < -maxOrderTick || out[pid][i] > maxOrderTick {
				return nil, errOrderTimescale(net, "the sporadic event at %vs of process %q", t, p.Name)
			}
		}
		if err := p.Gen.CheckSporadic(sorted); err != nil {
			return nil, fmt.Errorf("core: process %q: %w", p.Name, err)
		}
		for _, t := range sorted {
			if !t.Less(horizon) {
				return nil, fmt.Errorf("core: process %q: sporadic event at %v is beyond horizon %v",
					p.Name, t, horizon)
			}
		}
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

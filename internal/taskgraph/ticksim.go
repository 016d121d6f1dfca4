package taskgraph

// Tick-lowered derivation core. The paper's step-2 invocation simulation is
// arithmetic over rational time stamps: generate every invocation instant
// t = c·T'_p over [0, H), sort by (t, FP' rank) and read the job tuples
// (A_i, D_i, C_i) off the ordered sequence. This file runs it on the
// network's integer timescale (see timescale.go): each invocation instant
// and deadline is an exact int64 tick count, and the <_J sort is
// core.SortFrame's packed (tick, rank) key sort, the one core.JobOrder
// runs. Lowered values are converted back through Scale.FromTicks, which
// reduces to lowest terms, so every job carries the exact rational times of
// the paper; the differential suite and FuzzDeriveTickMatchesRational in
// internal/integration hold the simulation to an exact-rational oracle.

import (
	"slices"
	"sort"

	"repro/internal/core"
)

// simulateFrameTicks produces the job sequence of PN' over [0, H) in <_J
// order with each job's (A_i, D_i, C_i) per the paper's formulas, deadlines
// truncated to the horizon H + DeadlineSlack. core.SortFrame orders the
// invocations over the server-substituted tick periods of PN'. Besides
// the jobs this returns the per-job tick table and each job's Pid packed
// into int32s for the edge pipeline.
func simulateFrameTicks(net *core.Network, tm *Timing, rank []int) (
	jobs []*Job, jobPid []int32, ticks *JobTicks) {

	procs := net.Processes()
	sc := tm.Scale
	burst := make([]int, len(procs))
	for pi, p := range procs {
		burst[pi] = p.Burst()
	}
	jobPid, arrival := core.SortFrame(tm.Period, burst, rank, tm.H, tm.Jobs)

	// Materialize the job tuples. One backing array for the nodes keeps
	// the per-job cost at field writes; FromTicks reduces to lowest terms,
	// so every Time is the exact rational value.
	total := len(jobPid)
	jobsArr := make([]Job, total)
	jobs = make([]*Job, total)
	ticks = &JobTicks{Scale: sc,
		Arrival: arrival, WCET: make([]int64, total), Deadline: make([]int64, total)}
	counts := make([]int64, len(procs))
	for i, pi := range jobPid {
		t := arrival[i]
		p := procs[pi]
		counts[pi]++
		k := counts[pi]
		j := &jobsArr[i]
		j.Index = i
		j.Proc = p.Name
		j.Pid = int(pi)
		j.K = k
		j.Arrival = sc.FromTicks(t)
		j.WCET = p.WCET
		dl := t + tm.Deadline[pi]
		if p.IsSporadic() {
			// Server job: corrected deadline d_p − T'_p.
			j.Server = true
			dl -= tm.Period[pi]
			m := int64(p.Burst())
			j.Subset = int((k-1)/m) + 1
			j.SlotInSubset = int((k-1)%m) + 1
		}
		if dl > tm.Horizon {
			dl = tm.Horizon // step 4: truncate to the frame (+ slack)
		}
		j.Deadline = sc.FromTicks(dl)
		jobs[i] = j
		ticks.WCET[i], ticks.Deadline[i] = tm.WCET[pi], dl
	}
	return jobs, jobPid, ticks
}

// candidateEdges produces, for every job, an edge to the next job (in <_J)
// of the same process and to the next job of every related process
// (jobPid[i] is job i's pid, related the TaskGraph's table). The
// transitive closure of this set equals the full precedence relation of the
// paper's step 3, because later jobs of the same target process are reached
// through that process's own chain. Successor lists are carved from one
// arena sized by the exact per-job degree bound (1 + |related|), so the
// generation allocates O(1) slices regardless of job count. One descending
// sweep maintains nextOf[q] = smallest job index of process q strictly
// above the sweep position, O(1) per job.
func candidateEdges(jobPid []int32, related [][]int) [][]int {
	n := len(jobPid)
	off := make([]int, n+1)
	total := 0
	for i := 0; i < n; i++ {
		off[i] = total
		total += 1 + len(related[jobPid[i]])
	}
	off[n] = total
	arena := make([]int, total)
	succ := make([][]int, n)
	nextOf := make([]int32, len(related))
	for pi := range nextOf {
		nextOf[pi] = -1
	}
	for i := n - 1; i >= 0; i-- {
		pi := jobPid[i]
		out := arena[off[i]:off[i]:off[i+1]]
		// Next job of the same process.
		if nx := nextOf[pi]; nx >= 0 {
			out = append(out, int(nx))
		}
		for _, qi := range related[pi] {
			if nx := nextOf[qi]; nx >= 0 {
				out = append(out, int(nx))
			}
		}
		sort.Ints(out)
		succ[i] = dedupInts(out)
		nextOf[pi] = int32(i)
	}
	return succ
}

// chainReductionMinJobs switches the transitive reduction to the
// chain-decomposition algorithm: the bitset sweep stores n·n/8 bytes of
// descendant sets, which at 10^5 jobs would be gigabytes, while the chain
// form stores n·P int32s (P = process count). Below the threshold the
// bitset sweep stays — it is faster for small frames and its descendant
// sets double as the O(1) HasPath index.
const chainReductionMinJobs = 8192

// transitiveReductionChains removes redundant edges using the process-chain
// structure of the derivation instead of full descendant bitsets. Every job
// set partitions into per-process chains along which consecutive jobs are
// always connected (candidateEdges links each job to its process
// successor), so reachability into a chain is summarized by the minimum
// reachable index: minReach[v][c] = smallest job index of chain c strictly
// reachable from v. An edge (v, u) is redundant exactly when some successor
// w of v reaches u, i.e. minReach[w][chain(u)] ≤ u — the same criterion the
// bitset sweep evaluates, so both algorithms keep identical edge sets (the
// in-package differential test pins this on random graphs).
func transitiveReductionChains(succ [][]int, jobPid []int32, np int) [][]int {
	n := len(succ)
	const inf = int32(1 << 30)

	// minReach rows are stored sparsely: row v holds (chain, min index)
	// pairs sorted by chain id, covering exactly the chains reachable from
	// v. A dense n×np matrix is gigabytes at the 100k-job scale tier with
	// its thousands of processes, while the jobs of such networks reach
	// only a handful of downstream chains each; dense-relation networks
	// (where sparse degenerates to the same footprint) stay on the bitset
	// sweep below the job threshold anyway.
	rowChain := make([][]int32, n)
	rowMin := make([][]int32, n)
	// One dense scratch row with a touched list keeps each merge
	// hash-free and O(sum of successor row sizes).
	scratch := make([]int32, np)
	for i := range scratch {
		scratch[i] = inf
	}
	touched := make([]int32, 0, np)
	lookup := func(w int, chain int32) int32 {
		cs := rowChain[w]
		lo, hi := 0, len(cs)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if cs[mid] < chain {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(cs) && cs[lo] == chain {
			return rowMin[w][lo]
		}
		return inf
	}

	total := 0
	for _, s := range succ {
		total += len(s)
	}
	arena := make([]int, 0, total)
	out := make([][]int, n)
	chainArena := make([]int32, 0, 4*n)
	minArena := make([]int32, 0, 4*n)
	for v := n - 1; v >= 0; v-- {
		for _, u := range succ[v] {
			cs, ms := rowChain[u], rowMin[u]
			for k, c := range cs {
				if scratch[c] > ms[k] {
					if scratch[c] == inf {
						touched = append(touched, c)
					}
					scratch[c] = ms[k]
				}
			}
			if uc := jobPid[u]; scratch[uc] > int32(u) {
				if scratch[uc] == inf {
					touched = append(touched, uc)
				}
				scratch[uc] = int32(u)
			}
		}
		// Keep (v, u) unless some other successor w strictly reaches u:
		// minReach[w][chain(u)] ≤ u means w reaches a chain(u) job at or
		// before u, and the chain edges carry it the rest of the way.
		// (Same-chain w < u is subsumed: w's own chain successor y ≤ u
		// contributes y to minReach[w][chain(u)].)
		base := len(arena)
		for _, u := range succ[v] {
			redundant := false
			for _, w := range succ[v] {
				if w != u && lookup(w, jobPid[u]) <= int32(u) {
					redundant = true
					break
				}
			}
			if !redundant {
				arena = append(arena, u)
			}
		}
		out[v] = arena[base:len(arena):len(arena)]

		// Freeze v's row from the scratch and reset the touched cells.
		// Arena growth may move the backing; earlier rows keep pointing at
		// the old block, whose values never change again.
		slices.Sort(touched)
		cb, mb := len(chainArena), len(minArena)
		for _, c := range touched {
			chainArena = append(chainArena, c)
			minArena = append(minArena, scratch[c])
			scratch[c] = inf
		}
		rowChain[v] = chainArena[cb:len(chainArena):len(chainArena)]
		rowMin[v] = minArena[mb:len(minArena):len(minArena)]
		touched = touched[:0]
	}
	return out
}

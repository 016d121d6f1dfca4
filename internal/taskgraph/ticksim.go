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
// The edge pipeline works on the jobs' pids alone: candidateEdges is step
// 3, and transitiveReduction (step 5) keeps one row per job with a cell
// per process chain it reaches, so its memory grows with the jobs times
// the reached chains, not as n².

import (
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

// denseReachMaxProcs is the largest process count whose minimum-reach rows
// transitiveReduction stores densely, n·P int32s. Above it a job reaches
// few of the chains, so sparse rows listing only those are both smaller
// and faster to merge.
const denseReachMaxProcs = 64

// transitiveReduction removes every edge (v, u) for which another
// successor of v reaches u. The jobs partition into per-process chains
// whose consecutive jobs are always linked (candidateEdges links each job
// to its process successor), so what v reaches of chain c is summarized by
// the smallest job index it reaches there, reach_v[c]. Edges point forward,
// so one reverse sweep sees every successor's row complete. For each job v:
//
//  1. reach_v starts as the element-wise minimum of its successors' rows;
//  2. each successor u in turn is dropped when reach_v[chain(u)] ≤ u:
//     another successor reaches a job of u's chain at or before u, and the
//     chain carries it to u (u's own row holds only indices above u);
//     otherwise the edge is kept and u folds into reach_v[chain(u)].
//
// Each edge is tested in O(1). Rows are dense (np cells each) up to
// denseReachMaxProcs processes and sparse (reachCell lists) above; the
// choice depends only on np.
func transitiveReduction(succ [][]int, jobPid []int32, np int) [][]int {
	return reduceChains(succ, jobPid, np, np <= denseReachMaxProcs)
}

// reachCell is one entry of a sparse minimum-reach row.
type reachCell struct{ chain, min int32 }

// reduceChains is transitiveReduction with the row layout chosen by the
// caller.
func reduceChains(succ [][]int, jobPid []int32, np int, dense bool) [][]int {
	n := len(succ)
	const inf = int32(1<<31 - 1)
	total := countEdges(succ)
	// Kept-edge lists are carved from one arena sized by the candidate
	// edge count.
	arena := make([]int, 0, total)
	out := make([][]int, n)

	// Dense: row v is rows[v*np:(v+1)*np] and is built in place. Sparse:
	// row v is cells[rowEnd[v+1]:rowEnd[v]], built in the dense scratch
	// row with a touched list and then frozen, so each merge costs the
	// successors' row lengths. The scale tier's rows hold about 1.8 cells
	// per candidate edge, hence the initial capacity.
	var rows, scratch, touched []int32
	var cells []reachCell
	var rowEnd []int
	if dense {
		rows = make([]int32, n*np)
	} else {
		scratch = make([]int32, np)
		for c := range scratch {
			scratch[c] = inf
		}
		cells = make([]reachCell, 0, 2*total)
		rowEnd = make([]int, n+1)
	}
	for v := n - 1; v >= 0; v-- {
		row := scratch
		if dense {
			row = rows[v*np : (v+1)*np]
			if len(succ[v]) == 0 {
				for c := range row {
					row[c] = inf
				}
			}
			for k, u := range succ[v] {
				r := rows[u*np:][:len(row)]
				if k == 0 {
					copy(row, r)
					continue
				}
				for c := range row {
					row[c] = min(row[c], r[c])
				}
			}
		} else {
			for _, u := range succ[v] {
				for _, cell := range cells[rowEnd[u+1]:rowEnd[u]] {
					if cell.min < row[cell.chain] {
						if row[cell.chain] == inf {
							touched = append(touched, cell.chain)
						}
						row[cell.chain] = cell.min
					}
				}
			}
		}
		base := len(arena)
		for _, u := range succ[v] {
			if c := jobPid[u]; int32(u) < row[c] {
				if !dense && row[c] == inf {
					touched = append(touched, c)
				}
				row[c] = int32(u)
				arena = append(arena, u)
			}
		}
		out[v] = arena[base:len(arena):len(arena)]
		if !dense {
			for _, c := range touched {
				cells = append(cells, reachCell{c, row[c]})
				row[c] = inf
			}
			touched = touched[:0]
			rowEnd[v] = len(cells)
		}
	}
	return out
}

package integration

// The exact-rational invocation simulation of the task-graph derivation:
// the pre-tick implementation of step 2, kept as the differential oracle
// of taskgraph's int64 tick simulation (tick_derive_differential_test.go).

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rational"
	"repro/internal/taskgraph"
)

// simulateFrameRational produces the job sequence of PN' over [0, H) in
// <_J order and computes each job's (A_i, D_i, C_i) per the paper's
// formulas, with deadlines truncated to H + slack — in exact rational
// arithmetic. It is the pre-tick derivation core, kept as the oracle of
// the tick simulation. The server transformation (tg.ServerPeriod,
// tg.User) comes from the derived graph; H and the FP' ranks are
// recomputed here, H through the rational LCM of core.Hyperperiod.
func simulateFrameRational(net *core.Network, tg *taskgraph.TaskGraph, slack rational.Rat) (rational.Rat, []*taskgraph.Job, error) {
	h, err := core.Hyperperiod(net, tg.ServerPeriod)
	if err != nil {
		return rational.Rat{}, nil, err
	}
	rank, err := fpPrimeRanks(net, tg.User)
	if err != nil {
		return rational.Rat{}, nil, err
	}
	truncateAt := h.Add(slack)
	type inv struct {
		t    rational.Rat
		proc string
	}
	var invs []inv
	for _, p := range net.Processes() {
		period := p.Period()
		if s, ok := tg.ServerPeriod[p.Name]; ok {
			period = s
		}
		for t := rational.Zero; t.Less(h); t = t.Add(period) {
			for b := 0; b < p.Burst(); b++ {
				invs = append(invs, inv{t, p.Name})
			}
		}
	}
	sort.SliceStable(invs, func(i, j int) bool {
		if c := invs[i].t.Cmp(invs[j].t); c != 0 {
			return c < 0
		}
		if ri, rj := rank[invs[i].proc], rank[invs[j].proc]; ri != rj {
			return ri < rj
		}
		return invs[i].proc < invs[j].proc
	})

	counts := make(map[string]int64)
	jobs := make([]*taskgraph.Job, 0, len(invs))
	for _, iv := range invs {
		p := net.Process(iv.proc)
		counts[iv.proc]++
		k := counts[iv.proc]
		j := &taskgraph.Job{
			Index:   len(jobs),
			Proc:    iv.proc,
			Pid:     net.Pid(iv.proc),
			K:       k,
			Arrival: iv.t,
			WCET:    p.WCET,
		}
		if tp, ok := tg.ServerPeriod[iv.proc]; ok {
			j.Server = true
			j.Deadline = iv.t.Add(p.Deadline()).Sub(tp)
			m := int64(p.Burst())
			j.Subset = int((k-1)/m) + 1
			j.SlotInSubset = int((k-1)%m) + 1
		} else {
			j.Deadline = iv.t.Add(p.Deadline())
		}
		j.Deadline = minRat(j.Deadline, truncateAt) // step 4: truncate to the frame (+ slack)
		jobs = append(jobs, j)
	}
	return h, jobs, nil
}

// minRat is the smaller of two rationals.
func minRat(a, b rational.Rat) rational.Rat {
	if b.Less(a) {
		return b
	}
	return a
}

// fpPrimeRanks computes a linear extension of FP' = FP with all edges
// touching sporadic processes removed and server->user edges added.
func fpPrimeRanks(net *core.Network, user map[string]string) (map[string]int, error) {
	procs := net.ProcessNames()
	sporadic := make(map[string]bool, len(user))
	for s := range user {
		sporadic[s] = true
	}
	adj := make(map[string]map[string]bool)
	for _, e := range net.PriorityEdges() {
		hi, lo := e[0], e[1]
		if sporadic[hi] || sporadic[lo] {
			continue
		}
		if adj[hi] == nil {
			adj[hi] = map[string]bool{}
		}
		adj[hi][lo] = true
	}
	for s, u := range user {
		if adj[s] == nil {
			adj[s] = map[string]bool{}
		}
		adj[s][u] = true
	}
	rank, ok := linearExtensionReference(procs, adj, -1)
	if !ok {
		return nil, fmt.Errorf("FP' graph has a cycle (check priorities between sporadic processes and their users)")
	}
	return rank, nil
}

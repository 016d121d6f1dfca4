package integration

// The name-keyed process tables of the task graph — the FP'-relatedness
// sets and the (process, k) → job index map that taskgraph built before it
// kept one pid-keyed index — kept as the oracle of TaskGraph's Job.Pid,
// Related, RelatedPids, JobsOf and Job.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/nettest"
	"repro/internal/taskgraph"
)

// relatedSetsReference maps each process to the set of processes it is
// FP'-related to (either direction): FP without the edges that touch a
// sporadic process, plus each sporadic process's edge to its user.
func relatedSetsReference(net *core.Network, user map[string]string) map[string]map[string]bool {
	rel := make(map[string]map[string]bool)
	add := func(a, b string) {
		if rel[a] == nil {
			rel[a] = map[string]bool{}
		}
		rel[a][b] = true
	}
	for _, e := range net.PriorityEdges() {
		if _, s := user[e[0]]; s {
			continue
		}
		if _, s := user[e[1]]; s {
			continue
		}
		add(e[0], e[1])
		add(e[1], e[0])
	}
	for s, u := range user {
		add(s, u)
		add(u, s)
	}
	return rel
}

// jobIndexReference maps process name → invocation count k → job index.
func jobIndexReference(tg *taskgraph.TaskGraph) map[string]map[int64]int {
	index := make(map[string]map[int64]int)
	for i, j := range tg.Jobs {
		if index[j.Proc] == nil {
			index[j.Proc] = make(map[int64]int)
		}
		index[j.Proc][j.K] = i
	}
	return index
}

// assertProcessIndexMatchesReference derives net and checks every job's
// Pid, the relatedness table and the per-process job lists against the
// name-keyed oracle. It reports whether net has a sporadic process.
func assertProcessIndexMatchesReference(t *testing.T, net *core.Network) (sporadic bool) {
	t.Helper()
	tg, err := taskgraph.Derive(net)
	if err != nil {
		t.Fatalf("%s: derive: %v", net.Name, err)
	}
	procs := net.Processes()
	for i, j := range tg.Jobs {
		if j.Pid < 0 || j.Pid >= len(procs) || procs[j.Pid].Name != j.Proc {
			t.Fatalf("%s: job %d (%s) has pid %d", net.Name, i, j.Name(), j.Pid)
		}
	}
	rel := relatedSetsReference(net, tg.User)
	index := jobIndexReference(tg)
	for p, pp := range procs {
		sporadic = sporadic || pp.IsSporadic()
		var want []int
		for q, qp := range procs {
			related := rel[pp.Name][qp.Name]
			if related && q != p {
				want = append(want, q)
			}
			if got := tg.Related(p, q); got != (related || p == q) {
				t.Fatalf("%s: Related(%s, %s) = %v, reference %v", net.Name, pp.Name, qp.Name, got, related || p == q)
			}
		}
		if got := tg.RelatedPids(p); !slices.Equal(got, want) {
			t.Fatalf("%s: RelatedPids(%s) = %v, reference %v", net.Name, pp.Name, got, want)
		}
		ks := index[pp.Name]
		jobs := tg.JobsOf(p)
		if len(jobs) != len(ks) {
			t.Fatalf("%s: JobsOf(%s) has %d jobs, reference %d", net.Name, pp.Name, len(jobs), len(ks))
		}
		for k := int64(1); k <= int64(len(ks)); k++ {
			i, ok := ks[k]
			if !ok || jobs[k-1] != i || tg.Job(pp.Name, k) != tg.Jobs[i] {
				t.Fatalf("%s: job %s[%d] is %d in JobsOf and %v in Job, reference %d (present %v)",
					net.Name, pp.Name, k, jobs[k-1], tg.Job(pp.Name, k), i, ok)
			}
		}
		if tg.Job(pp.Name, 0) != nil || tg.Job(pp.Name, int64(len(ks))+1) != nil {
			t.Fatalf("%s: Job(%s, k) outside 1..%d is not nil", net.Name, pp.Name, len(ks))
		}
	}
	if tg.Job("no such process", 1) != nil || tg.JobsOf(-1) != nil || tg.JobsOf(len(procs)) != nil {
		t.Fatalf("%s: unknown processes have jobs", net.Name)
	}
	return sporadic
}

// TestProcessIndexMatchesReference pins the task graph's pid-keyed
// process index to the name-keyed oracle on every registry application,
// on the scale:10k network and on random networks with and without
// sporadic processes.
func TestProcessIndexMatchesReference(t *testing.T) {
	for _, name := range apps.Names() {
		net, err := apps.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		assertProcessIndexMatchesReference(t, net)
	}
	model, err := cli.LoadModel("scale:10k")
	if err != nil {
		t.Fatal(err)
	}
	assertProcessIndexMatchesReference(t, model.Net)

	seen := map[bool]int{}
	for i := 0; i < trialCount(t, 60); i++ {
		net := nettest.Random(rand.New(rand.NewSource(int64(4000+i))), nettest.Options{MaxSporadic: 3})
		seen[assertProcessIndexMatchesReference(t, net)]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Errorf("random networks with/without sporadic processes: %d/%d, want both", seen[true], seen[false])
	}
}

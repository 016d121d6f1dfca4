package integration

// Differential harness for the combined static order: sched.Schedule.
// CombinedOrder, built on CSR arrays, must return index for index the
// order of the append-and-sort Kahn pass it replaced
// (combinedOrderReference), and the same error text on a cyclic set of
// chains. Checked on every registry application, scale:10k and random
// networks, with the schedules' own chains and with random extra chains.

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/cli"
	"repro/internal/nettest"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// combinedOrderReference is the original CombinedOrder: one adjacency
// slice per job built by append, and a Kahn pass whose ready queue takes
// each newly readied batch sorted by index.
func combinedOrderReference(s *sched.Schedule, chains [][]int) ([]int, error) {
	tg := s.TG
	n := len(tg.Jobs)
	adj := make([][]int, n)
	indeg := make([]int, n)
	add := func(a, b int) {
		adj[a] = append(adj[a], b)
		indeg[b]++
	}
	for _, e := range tg.Edges() {
		add(e[0], e[1])
	}
	for _, chain := range chains {
		for i := 1; i < len(chain); i++ {
			add(chain[i-1], chain[i])
		}
	}
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	var order []int
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		var next []int
		for _, u := range adj[v] {
			indeg[u]--
			if indeg[u] == 0 {
				next = append(next, u)
			}
		}
		sort.Ints(next)
		ready = append(ready, next...)
	}
	if len(order) != n {
		return nil, errors.New("static schedule is inconsistent with the precedence constraints (cycle between processor order and task graph)")
	}
	return order, nil
}

// assertCombinedOrder compares CombinedOrder with the reference on s and
// chains: the same order index for index, or the same error text.
func assertCombinedOrder(t *testing.T, s *sched.Schedule, chains [][]int) {
	t.Helper()
	got, gotErr := s.CombinedOrder(chains)
	want, wantErr := combinedOrderReference(s, chains)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("m=%d %v: error mismatch: CSR %v, reference %v", s.M, s.Heuristic, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("m=%d %v: error text %q, reference %q", s.M, s.Heuristic, gotErr, wantErr)
		}
		return
	}
	if !slices.Equal(got, want) {
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("m=%d %v: position %d holds job %d, reference %d", s.M, s.Heuristic, k, got[k], want[k])
			}
		}
	}
}

// assertScheduleOrders list-schedules tg with every heuristic on each
// processor count in ms and compares the combined orders of the
// schedules' own chains.
func assertScheduleOrders(t *testing.T, tg *taskgraph.TaskGraph, ms []int) {
	t.Helper()
	for _, h := range sched.Heuristics {
		for _, m := range ms {
			s, err := sched.ListSchedule(tg, m, h)
			if err != nil {
				t.Fatalf("m=%d %v: %v", m, h, err)
			}
			assertCombinedOrder(t, s, s.ProcessorOrder())
		}
	}
}

// randomChains returns k chains of distinct random jobs in random order
// and, when cyclic is set and the graph has an edge, one more chain that
// runs an edge backwards.
func randomChains(rng *rand.Rand, tg *taskgraph.TaskGraph, k int, cyclic bool) [][]int {
	n := len(tg.Jobs)
	var chains [][]int
	for c := 0; c < k && n > 0; c++ {
		chains = append(chains, rng.Perm(n)[:1+rng.Intn(n)])
	}
	if edges := tg.Edges(); cyclic && len(edges) > 0 {
		e := edges[rng.Intn(len(edges))]
		chains = append(chains, []int{e[1], e[0]})
	}
	return chains
}

// TestCombinedOrderMatchesReference pins CombinedOrder to the reference on
// every registry application at 1–8 processors, on scale:10k and on random
// networks, with the schedules' chains and with random extra chains,
// acyclic and cyclic.
func TestCombinedOrderMatchesReference(t *testing.T) {
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8}
	for _, name := range apps.Names() {
		net, err := apps.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) { assertScheduleOrders(t, tg, ms) })
	}
	model, err := cli.LoadModel("scale:10k")
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.Derive(model.Net)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("scale:10k", func(t *testing.T) { assertScheduleOrders(t, tg, []int{1, 8}) })

	rng := rand.New(rand.NewSource(2718))
	cyclicErrs := 0
	for trial := 0; trial < trialCount(t, 60); trial++ {
		tg, err := taskgraph.Derive(nettest.Random(rng, nettest.Options{}))
		if err != nil {
			continue // generator produced a non-schedulable corner case
		}
		assertScheduleOrders(t, tg, []int{1, 2, len(tg.Jobs)})
		s, err := sched.ListSchedule(tg, 2, sched.ALAPEDF)
		if err != nil {
			t.Fatal(err)
		}
		assertCombinedOrder(t, s, randomChains(rng, tg, 1+rng.Intn(3), false))
		cyclic := randomChains(rng, tg, 0, true)
		if _, err := s.CombinedOrder(cyclic); err != nil {
			cyclicErrs++
		}
		assertCombinedOrder(t, s, cyclic)
	}
	if cyclicErrs == 0 {
		t.Error("no random network rejected a backwards edge: the cyclic case went untested")
	}
}

// FuzzCombinedOrderMatchesReference feeds seeds into the random-network
// generator, list-schedules the graph with a seed-chosen heuristic and
// processor count, and demands the reference's combined order for the
// schedule's chains plus seed-chosen extra chains, cyclic ones included.
// As a plain test it replays a seed corpus sized by FPPN_FUZZ_TRIALS.
func FuzzCombinedOrderMatchesReference(f *testing.F) {
	for seed := 0; seed < trialCount(f, 16); seed++ {
		f.Add(int64(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		tg, err := taskgraph.Derive(nettest.Random(rng, nettest.Options{}))
		if err != nil {
			t.Skip() // generator produced a non-schedulable corner case
		}
		h := sched.Heuristics[rng.Intn(len(sched.Heuristics))]
		s, err := sched.ListSchedule(tg, 1+rng.Intn(len(tg.Jobs)), h)
		if err != nil {
			t.Skip() // a stall leaves no chains to order
		}
		chains := s.ProcessorOrder()
		assertCombinedOrder(t, s, chains)
		extra := randomChains(rng, tg, rng.Intn(3), rng.Intn(2) == 0)
		assertCombinedOrder(t, s, append(chains, extra...))
	})
}

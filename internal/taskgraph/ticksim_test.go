package taskgraph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomChains synthesizes a random chain decomposition: n jobs spread
// over np chains (processes) with a random relatedness table — exactly the
// structural invariant candidateEdges establishes on real derivations.
func randomChains(rng *rand.Rand, n, np int) (jobPid []int32, related [][]int) {
	jobPid = make([]int32, n)
	for i := range jobPid {
		jobPid[i] = int32(rng.Intn(np))
	}
	related = make([][]int, np)
	for pi := 0; pi < np; pi++ {
		for qi := 0; qi < np; qi++ {
			if qi != pi && rng.Intn(3) == 0 {
				related[pi] = append(related[pi], qi)
			}
		}
	}
	return jobPid, related
}

// TestChainReductionMatchesBitset pins the chain-decomposition transitive
// reduction (the scale-tier path) to the bitset sweep on random candidate
// graphs: identical kept-edge sets, node for node.
func TestChainReductionMatchesBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		np := 1 + rng.Intn(6)
		n := 1 + rng.Intn(150)
		jobPid, related := randomChains(rng, n, np)
		cand := candidateEdges(jobPid, related)
		fromChains := transitiveReductionChains(cand, jobPid, np)
		fromBitset, _ := transitiveReduction(cand)
		if !reflect.DeepEqual(fromChains, fromBitset) {
			t.Fatalf("trial %d (n=%d, np=%d): chain reduction diverges from bitset sweep\nchains: %v\nbitset: %v",
				trial, n, np, fromChains, fromBitset)
		}
	}
}

// reachRows returns the transitive closure of a forward-edge relation as
// one reachability row per node: rows[a][b] reports a path a -> b.
func reachRows(succ [][]int) [][]bool {
	n := len(succ)
	rows := make([][]bool, n)
	for a := n - 1; a >= 0; a-- {
		rows[a] = make([]bool, n)
		for _, b := range succ[a] {
			rows[a][b] = true
			for c := b + 1; c < n; c++ {
				rows[a][c] = rows[a][c] || rows[b][c]
			}
		}
	}
	return rows
}

// TestCandidateEdgesMatchPaperStep3 checks candidateEdges against the
// definition of step 3: J_a precedes J_b when a < b in <_J and the two
// jobs belong to the same process or to related processes. Every
// candidate edge must be such a pair, and the candidate set must have the
// same transitive closure as the full relation.
func TestCandidateEdgesMatchPaperStep3(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		np := 1 + rng.Intn(5)
		n := 1 + rng.Intn(120)
		jobPid, relPids := randomChains(rng, n, np)
		related := func(a, b int) bool {
			pa, pb := jobPid[a], jobPid[b]
			return pa == pb || slices.Contains(relPids[pa], int(pb))
		}
		full := make([][]int, n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if related(a, b) {
					full[a] = append(full[a], b)
				}
			}
		}
		cand := candidateEdges(jobPid, relPids)
		for a, out := range cand {
			for _, b := range out {
				if b <= a || !related(a, b) {
					t.Fatalf("trial %d (n=%d, np=%d): candidate edge %d->%d is not a step-3 pair", trial, n, np, a, b)
				}
			}
		}
		if got, want := reachRows(cand), reachRows(full); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, np=%d): closure of candidate edges differs from step 3\ncandidates: %v",
				trial, n, np, cand)
		}
	}
}

package taskgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomChains synthesizes a random chain decomposition: n jobs spread
// over np chains (processes) with a random relatedness table in which each
// ordered pair of processes is related with probability 1/oneIn — exactly
// the structural invariant candidateEdges establishes on real derivations.
func randomChains(rng *rand.Rand, n, np, oneIn int) (jobPid []int32, related [][]int) {
	jobPid = make([]int32, n)
	for i := range jobPid {
		jobPid[i] = int32(rng.Intn(np))
	}
	related = make([][]int, np)
	for pi := 0; pi < np; pi++ {
		for qi := 0; qi < np; qi++ {
			if qi != pi && rng.Intn(oneIn) == 0 {
				related[pi] = append(related[pi], qi)
			}
		}
	}
	return jobPid, related
}

// bitsetReduction is the reference transitive reduction: one reverse sweep
// that keeps each job's strict descendants as an n-bit set and drops the
// edge (v, u) when u descends from another successor of v. It needs no
// chain structure, and n²/8 bytes.
func bitsetReduction(succ [][]int) [][]int {
	n := len(succ)
	desc := make([][]uint64, n)
	out := make([][]int, n)
	for v := n - 1; v >= 0; v-- {
		d := make([]uint64, (n+63)/64)
		for _, u := range succ[v] {
			for w, bits := range desc[u] {
				d[w] |= bits
			}
		}
		for _, u := range succ[v] {
			if d[u/64]&(1<<(u%64)) == 0 {
				out[v] = append(out[v], u)
			}
		}
		for _, u := range succ[v] {
			d[u/64] |= 1 << (u % 64)
		}
		desc[v] = d
	}
	return out
}

// assertReductionMatchesBitset fails unless both row layouts of the chain
// reduction keep exactly the bitset sweep's edges, node for node.
func assertReductionMatchesBitset(t *testing.T, what string, jobPid []int32, related [][]int) {
	t.Helper()
	np := len(related)
	cand := candidateEdges(jobPid, related)
	want := bitsetReduction(cand)
	for _, dense := range []bool{true, false} {
		got := reduceChains(cand, jobPid, np, dense)
		for v := range want {
			if !slices.Equal(got[v], want[v]) {
				t.Fatalf("%s (n=%d, np=%d, dense=%v): job %d keeps %v, bitset sweep keeps %v",
					what, len(jobPid), np, dense, v, got[v], want[v])
			}
		}
	}
}

// TestChainReductionMatchesBitset pins the transitive reduction, in both
// row layouts, to the bitset sweep on random candidate graphs whose
// process counts span the dense and the sparse rule.
func TestChainReductionMatchesBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		np := 1 + rng.Intn(100)
		n := 1 + rng.Intn(150)
		jobPid, related := randomChains(rng, n, np, 1+rng.Intn(8))
		assertReductionMatchesBitset(t, fmt.Sprintf("trial %d", trial), jobPid, related)
	}
}

// FuzzReductionMatchesBitset is TestChainReductionMatchesBitset on fuzzed
// chain decompositions: up to 400 jobs over 1–300 processes, with
// relatedness from every pair to one pair in 64.
func FuzzReductionMatchesBitset(f *testing.F) {
	f.Add(int64(1), uint16(150), uint16(12), uint8(3))
	f.Add(int64(2), uint16(300), uint16(272), uint8(40))
	f.Add(int64(3), uint16(399), uint16(299), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n, np uint16, oneIn uint8) {
		rng := rand.New(rand.NewSource(seed))
		jobPid, related := randomChains(rng, 1+int(n%400), 1+int(np%300), 1+int(oneIn%64))
		assertReductionMatchesBitset(t, fmt.Sprintf("seed %d", seed), jobPid, related)
	})
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
		jobPid, relPids := randomChains(rng, n, np, 3)
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

package tree

import (
	"partree/internal/par"
	"partree/internal/pram"
)

// DepthsParallel computes the depth of every node with the classic PRAM
// technique the paper's tree machinery presumes: build the Euler tour of
// the tree (each edge contributes a down-step and an up-step), rank the
// tour by pointer jumping (par.ListRank, O(log n) rounds), and read each
// node's depth off the prefix of +1/−1 steps before its first visit.
// It returns the depths indexed by preorder id: the root is id 0, and
// each node's left subtree is numbered before its right subtree.
//
// The host-side tour construction is O(n); the ranking — the part a
// sequential traversal cannot parallelize — runs on the machine.
func DepthsParallel(m *pram.Machine, t *Node) []int {
	if t == nil {
		return nil
	}
	defer m.Phase("tree.DepthsParallel")()
	// Collect the Euler tour as a linked list of signed steps, numbering
	// nodes in preorder as the tour enters them: +1 entering a node
	// (except the root) carries its id, -1 leaving carries none.
	type step struct {
		delta int
		id    int // preorder id of the node entered on a +1 step, -1 on a -1 step
	}
	var tour []step
	n := 1 // the root is id 0
	var walk func(v *Node)
	walk = func(v *Node) {
		for _, c := range []*Node{v.Left, v.Right} {
			if c != nil {
				tour = append(tour, step{delta: +1, id: n})
				n++
				walk(c)
				tour = append(tour, step{delta: -1, id: -1})
			}
		}
	}
	walk(t)

	// List ranking: next[i] = i+1 encoded as a scattered linked list (the
	// tour already is one; rank gives distance to the end, so the prefix
	// sum of deltas up to position i equals depth when combined with an
	// inclusive scan — use the machine's scan directly on the deltas).
	deltas := make([]int, len(tour))
	m.For(len(tour), func(i int) { deltas[i] = tour[i].delta })
	prefix := par.ScanInclusive(m, deltas, func(a, b int) int { return a + b })

	// Verify the ranking machinery agrees with the scan on the same tour
	// (rank of position i from the tail + i = len-1); this keeps ListRank
	// exercised on a real workload.
	next := make([]int, len(tour))
	m.For(len(tour), func(i int) {
		if i == len(tour)-1 {
			next[i] = -1
		} else {
			next[i] = i + 1
		}
	})
	ranks := par.ListRank(m, next)
	for i := range ranks {
		if ranks[i]+i != len(tour)-1 {
			panic("tree: Euler tour ranking inconsistent")
		}
	}

	depths := make([]int, n) // the root's depth is 0
	m.For(len(tour), func(i int) {
		if tour[i].id >= 0 {
			depths[tour[i].id] = prefix[i]
		}
	})
	return depths
}

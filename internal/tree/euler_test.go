package tree

import (
	"math/rand"
	"testing"

	"partree/internal/pram"
)

func TestDepthsParallelMatchesRecursive(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	m := pram.New(pram.WithWorkers(4), pram.WithGrain(16))
	for trial := 0; trial < 25; trial++ {
		tr := RandomLeftJustified(rng, 1+rng.Intn(100))
		got := DepthsParallel(m, tr)
		want := preorderDepths(tr)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d depths, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if got[id] != want[id] {
				t.Fatalf("trial %d: node %d depth %d, want %d", trial, id, got[id], want[id])
			}
		}
	}
}

// preorderDepths is the reference: node depths in preorder, by a
// recursive walk.
func preorderDepths(tr *Node) []int {
	var out []int
	var walk func(v *Node, d int)
	walk = func(v *Node, d int) {
		if v == nil {
			return
		}
		out = append(out, d)
		walk(v.Left, d+1)
		walk(v.Right, d+1)
	}
	walk(tr, 0)
	return out
}

func TestDepthsParallelSingleAndNil(t *testing.T) {
	m := pram.New()
	if d := DepthsParallel(m, nil); len(d) != 0 {
		t.Errorf("nil tree depths = %v, want none", d)
	}
	if d := DepthsParallel(m, NewLeaf(0, 1)); len(d) != 1 || d[0] != 0 {
		t.Errorf("single leaf depths = %v, want [0]", d)
	}
}

// The ranking-based computation runs in O(log n) parallel statements.
func TestDepthsParallelRoundCount(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	tr := RandomTree(rng, 2048)
	m := pram.New()
	got := DepthsParallel(m, tr)
	want := preorderDepths(tr)
	for id := range want {
		if got[id] != want[id] {
			t.Fatalf("node %d depth %d, want %d", id, got[id], want[id])
		}
	}
	if steps := m.Counters().Steps; steps > 64 {
		t.Errorf("%d parallel statements, want O(log n)", steps)
	}
}

package obst

import (
	"math"

	"partree/internal/pram"
	"partree/internal/tree"
)

// ApproxResult carries the output of the parallel approximation together
// with the artifacts the experiments report.
type ApproxResult struct {
	// Tree is the constructed search tree for the original instance.
	Tree *tree.Node
	// Cost is the weighted path length of Tree.
	Cost float64
	// Epsilon is the additive error bound the construction guarantees
	// (Lemma 6.2): Cost ≤ optimal + Epsilon.
	Epsilon float64
	// Collapsed is the number of keys in the collapsed instance.
	Collapsed int
	// HeightBound is Lemma 6.1's H = O(log(1/ε)) for the collapsed
	// instance: the cap on the bounded DP's levels and its worst case.
	HeightBound int
	// Levels is the number of levels the DP ran (≤ HeightBound): it
	// stops at the first level that leaves its table unchanged.
	Levels int
	// Comparisons counts semiring comparisons across all concave products.
	Comparisons int64
}

// goldenRatio is φ of Lemma 6.1.
var goldenRatio = (1 + math.Sqrt(5)) / 2

// Approx constructs a binary search tree whose weighted path length is
// within eps of optimal, following the paper's Section 6 algorithm:
//
//  1. δ = ε/(2n log n); frequencies < δ are small.
//  2. Every maximal run of small frequencies (starting and ending with a
//     gap probability) collapses to one pseudo-gap of weight < ε.
//  3. H = O(log(1/δ)) bounds the height of an optimal tree of the
//     collapsed instance (Lemma 6.1, via the golden ratio).
//  4. The optimal collapsed tree is found exactly by at most H
//     height-bounded concave products (Lemma 5.1 applies verbatim; each
//     product uses the Section 4 algorithm), stopping early at the DP's
//     fixed point (see heightDP).
//  5. Collapsed pseudo-gaps are expanded into balanced trees of height
//     ≤ log n over their runs.
//
// Lemma 6.2 then bounds the total error by ε. The instance's total
// probability mass should be ≈ 1 for the lemma's bound to be meaningful.
func Approx(m *pram.Machine, in *Instance, eps float64) *ApproxResult {
	defer m.Phase("obst.Approx")()
	c := collapse(in, eps)
	nc := c.inst.N()

	// Degenerate case: everything collapsed into one pseudo-gap — any
	// balanced tree is within ε of optimal.
	if nc == 0 {
		t := Balanced(0, in.N())
		fillWeights(in, t)
		return &ApproxResult{
			Tree: t, Cost: in.Cost(t), Epsilon: eps, Collapsed: 0,
		}
	}

	_, cuts, cmp := heightDP(m, nc, c.inst.weights(), c.h, "obst.approx.level")
	t := c.expand(in, cuts)
	cuts.release()
	return &ApproxResult{
		Tree:        t,
		Cost:        in.Cost(t),
		Epsilon:     eps,
		Collapsed:   nc,
		HeightBound: c.h,
		Levels:      len(cuts),
		Comparisons: cmp,
	}
}

// collapsed is Approx's residual problem after steps 1–3: the instance
// over the kept keys (keys[i] is collapsed key i's original index) and
// the pseudo-gaps (runs[g] is the original gap range pseudo-gap g
// covers), with Lemma 6.1's height bound h.
type collapsed struct {
	inst *Instance
	keys []int
	runs [][2]int
	h    int
}

func collapse(in *Instance, eps float64) collapsed {
	n := in.N()
	if eps <= 0 {
		panic("obst: eps must be positive")
	}
	logn := math.Log2(float64(n) + 2)
	delta := eps / (2 * float64(n) * logn)

	// Step 2: collapse maximal runs of small frequencies. A run is a
	// maximal interval gap g₀, key g₀+1, …, gap g₁ with every α and β
	// inside < δ. Runs of a single gap are allowed (they start and end
	// with a p value, themselves).
	c := collapsed{inst: &Instance{}}
	g := 0
	for g <= n {
		g1, weight := g, in.Alpha[g]
		if in.Alpha[g] < delta {
			// Extend the run while the following key and gap are small.
			for g1 < n && in.Beta[g1] < delta && in.Alpha[g1+1] < delta {
				weight += in.Beta[g1] + in.Alpha[g1+1]
				g1++
			}
		}
		c.runs = append(c.runs, [2]int{g, g1})
		c.inst.Alpha = append(c.inst.Alpha, weight)
		if g1 < n {
			c.keys = append(c.keys, g1)
			c.inst.Beta = append(c.inst.Beta, in.Beta[g1])
		}
		g = g1 + 1
	}

	// Step 3: height bound from Lemma 6.1; no minimal tree is deeper than
	// the node count.
	h := int(math.Ceil(math.Log2(1/delta)/math.Log2(goldenRatio))) + 3
	c.h = min(h, 2*(len(c.keys)+1))
	return c
}

// expand reconstructs the optimal collapsed tree from the cut tables and
// expands each pseudo-gap into a balanced tree over its run (step 5).
func (c collapsed) expand(in *Instance, cuts levelCuts) *tree.Node {
	gap := func(g int) *tree.Node {
		sub := Balanced(c.runs[g][0], c.runs[g][1])
		fillWeights(in, sub)
		return sub
	}
	return cuts.build(in, c.h, 0, len(c.keys), gap, func(r int) int { return c.keys[r-1] })
}

// fillWeights stamps instance probabilities onto a structurally built
// search tree.
func fillWeights(in *Instance, t *tree.Node) {
	if t == nil {
		return
	}
	if t.IsLeaf() {
		t.Weight = in.Alpha[t.Symbol]
		return
	}
	t.Weight = in.Beta[t.Symbol]
	fillWeights(in, t.Left)
	fillWeights(in, t.Right)
}

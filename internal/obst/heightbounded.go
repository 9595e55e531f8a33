package obst

import (
	"fmt"
	"sync/atomic"

	"partree/internal/faultpoint"
	"partree/internal/matrix"
	"partree/internal/monge"
	"partree/internal/pram"
	"partree/internal/semiring"
	"partree/internal/tree"
)

// HeightBounded computes an exact optimal binary search tree among trees
// of height at most h (counting internal levels; a single key has height
// 0... a root-only tree has height 1 here, with its gap leaves at depth
// 1). This is step 4 of the paper's Section 6 algorithm — "computes
// optimal binary search trees of height bounded by H for all pairs" —
// exposed as a feature in its own right, mirroring hufpar.HeightLimited.
// It runs at most h concave products E_t = shift(E_{t-1}) ⋆ E_{t-1} + W
// (see heightDP) and reconstructs the tree from the stored cuts. It
// returns an error when no tree of n keys fits in height h (2^h − 1 < n).
func HeightBounded(m *pram.Machine, in *Instance, h int) (float64, *tree.Node, error) {
	n := in.N()
	if h < 1 {
		return 0, nil, fmt.Errorf("obst: height bound %d < 1", h)
	}
	if h < 62 && (1<<uint(h))-1 < n {
		return 0, nil, fmt.Errorf("obst: %d keys cannot fit in height %d", n, h)
	}
	defer m.Phase("obst.HeightBounded")()
	cost, cuts, _ := heightDP(m, n, in.weights(), h, "obst.height.level")
	defer cuts.release()
	if semiring.IsInf(cost) {
		return 0, nil, fmt.Errorf("obst: height %d infeasible for %d keys", h, n)
	}

	gap := func(g int) *tree.Node { return tree.NewLeaf(g, in.Alpha[g]) }
	return cost, cuts.build(in, h, 0, n, gap, func(r int) int { return r - 1 }), nil
}

// levelCuts holds the cut tables of a heightDP run, one per level run.
type levelCuts []*matrix.IntMat

// at returns level ℓ's cut table (ℓ ≥ 1). Levels past the run's fixed
// point would have repeated the last level, so they read its table.
func (c levelCuts) at(level int) *matrix.IntMat { return c[min(level, len(c))-1] }

// build rebuilds the optimal search tree of height ≤ level over DP gaps
// a…b: gap(g) builds DP gap g's subtree and key(r) maps DP key r
// (1-based) to its key in the instance.
func (c levelCuts) build(in *Instance, level, a, b int, gap func(g int) *tree.Node, key func(r int) int) *tree.Node {
	if a == b {
		return gap(a)
	}
	if level <= 0 {
		panic("obst: height budget exhausted during reconstruction")
	}
	r := c.at(level).At(a, b)
	if r <= a || r > b {
		panic("obst: invalid cut during reconstruction")
	}
	k := key(r)
	return &tree.Node{
		Symbol: k,
		Weight: in.Beta[k],
		Left:   c.build(in, level-1, a, r-1, gap, key),
		Right:  c.build(in, level-1, r, b, gap, key),
	}
}

func (c levelCuts) release() {
	for _, t := range c {
		t.Release()
	}
}

// heightDP runs the height-bounded DP over n keys with interval weights
// w for at most h levels:
//
//	E_0 = diag 0,  E_t = shift(E_{t-1}) ⋆ E_{t-1} + W,  diag(E_t) = 0,
//
// where shift moves E one column right, so E_t(a, b) is the optimal cost
// of a tree over gaps a…b of height ≤ t. Each level is one concave
// product (Lemma 5.1), whose cut table is kept for reconstruction.
// E_t = F(E_{t-1}) for a fixed F and MulPar's cuts are a deterministic
// function of its inputs, so once a level leaves E unchanged every later
// level would repeat it, cut table included: the loop stops there, and
// the levels it skips read the last table. h stays the cap and the
// worst case. It returns E_h(0, n), the cut tables and the semiring
// comparisons spent; point names the per-level fault point.
func heightDP(m *pram.Machine, n int, w func(a, b int) float64, h int, point string) (cost float64, cuts levelCuts, comparisons int64) {
	size := n + 1
	// Three level buffers serve every level: each statement writes all
	// of its target, so nothing stale survives a swap.
	e := matrix.NewInfFromPool(size, size)
	next := matrix.NewInfFromPool(size, size)
	shifted := matrix.NewInfFromPool(size, size)
	for a := 0; a < size; a++ {
		e.Set(a, a, 0)
	}
	var cnt matrix.OpCount
	cuts = make(levelCuts, h)
	var prod *matrix.Dense
	defer func() {
		if rec := recover(); rec != nil {
			cuts.release()
			prod.Release()
			e.Release()
			next.Release()
			shifted.Release()
			panic(rec)
		}
	}()
	for t := 0; t < h; t++ {
		faultpoint.Hit(point)
		m.For(size*size, func(idx int) {
			a, k := idx/size, idx%size
			v := semiring.Inf
			if k >= 1 {
				v = e.At(a, k-1)
			}
			shifted.Set(a, k, v)
		})
		prod, cuts[t] = monge.MulPar(m, shifted, e, &cnt)
		// Set at most once per level, so the flag costs no contention.
		var changed atomic.Bool
		m.For(size*size, func(idx int) {
			a, b := idx/size, idx%size
			v := semiring.Inf
			switch {
			case a == b:
				v = 0
			case a < b:
				if p := prod.At(a, b); !semiring.IsInf(p) {
					v = p + w(a, b)
				}
			}
			next.Set(a, b, v)
			if v != e.At(a, b) && !changed.Load() {
				changed.Store(true)
			}
		})
		prod.Release()
		prod = nil
		e, next = next, e
		if !changed.Load() {
			cuts = cuts[:t+1]
			break
		}
	}
	cost = e.At(0, n)
	e.Release()
	next.Release()
	shifted.Release()
	return cost, cuts, cnt.Load()
}

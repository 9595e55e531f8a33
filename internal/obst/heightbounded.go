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
// product (Lemma 5.1), whose cut table is kept for reconstruction, and
// one statement that folds it into E_t over E_t's band only (see
// levelBand); the shift is a view that offsets E's spans.
// E_t = F(E_{t-1}) for a fixed F and MulPar's cuts are a deterministic
// function of its inputs, so once a level leaves E unchanged every later
// level would repeat it, cut table included: the loop stops there, and
// the levels it skips read the last table. h stays the cap and the
// worst case. It returns E_h(0, n), the cut tables and the semiring
// comparisons spent; point names the per-level fault point.
func heightDP(m *pram.Machine, n int, w func(a, b int) float64, h int, point string) (cost float64, cuts levelCuts, comparisons int64) {
	e := levelBand(n, 0) // the zeroed slab is E_0's diagonal
	var cnt matrix.OpCount
	cuts = make(levelCuts, h)
	defer func() {
		if rec := recover(); rec != nil {
			cuts.release()
			e.Release()
			panic(rec)
		}
	}()
	for t := 0; t < h; t++ {
		faultpoint.Hit(point)
		next, cut, changed := nextLevel(m, e, w, t+1, &cnt)
		cuts[t] = cut
		e.Release()
		e = next
		if !changed {
			cuts = cuts[:t+1]
			break
		}
	}
	cost = e.At(0, n)
	e.Release()
	return cost, cuts, cnt.Load()
}

// nextLevel computes E_t from e = E_{t-1}: the product shift(e) ⋆ e on
// a view that offsets e's spans, then one statement over E_t's band that
// adds W and keeps the diagonal at 0. It returns E_t, the product's cut
// table and whether E_t differs from e anywhere.
func nextLevel(m *pram.Machine, e *matrix.Dense, w func(a, b int) float64, t int, cnt *matrix.OpCount) (*matrix.Dense, *matrix.IntMat, bool) {
	shifted := e.Shift(1)
	var prod, next *matrix.Dense
	var cut *matrix.IntMat
	defer func() {
		if rec := recover(); rec != nil {
			shifted.Release()
			prod.Release()
			cut.Release()
			next.Release()
			panic(rec)
		}
	}()
	prod, cut = monge.MulPar(m, shifted, e, cnt)
	shifted.Release()
	shifted = nil
	next = levelBand(e.R-1, t)
	// Set at most once per level, so the flag costs no contention.
	var changed atomic.Bool
	m.ForRange(next.Len(), func(lo, hi int) {
		next.Walk(lo, hi, func(a, b0, b1 int) {
			b0 = max(b0, a+1)
			if b0 >= b1 {
				return
			}
			out, pa, prev := next.Line(a).Piece(b0, b1), prod.Line(a), e.Line(a)
			for x := range out {
				b := b0 + x
				v := semiring.Inf
				if p := pa.At(b); !semiring.IsInf(p) {
					v = p + w(a, b)
				}
				out[x] = v
				if !changed.Load() && v != prev.At(b) {
					changed.Store(true)
				}
			}
		})
	})
	prod.Release()
	return next, cut, changed.Load()
}

// levelBand returns a zero matrix laid out as E_t over n keys: row a
// stores gaps a … min(n, a+2^t−1), the ranges whose b−a keys fit in a
// tree of height t (E_t is +∞ everywhere else). Its first entry, the
// diagonal, is E_t's 0.
func levelBand(n, t int) *matrix.Dense {
	reach := n
	if t < 62 && 1<<t-1 < n {
		reach = 1<<t - 1
	}
	return matrix.NewSpan(n+1, n+1, func(a int) (int, int) { return a, a + reach })
}

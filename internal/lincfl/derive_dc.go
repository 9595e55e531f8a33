package lincfl

import (
	"partree/internal/boolmat"
	"partree/internal/faultpoint"
	"partree/internal/grammar"
	"partree/internal/pram"
)

// DeriveDC extracts a derivation of w using the same separator
// decomposition as RecognizeDC — Theorem 8.1's parenthetical "(and
// generate a parse tree)". The recognition pass caches every region's
// boundary-reachability matrix; the extraction pass then walks the
// accepting path down the region tree, picking an explicit waypoint on
// each separator interface. It returns ok=false when w ∉ L(G).
func DeriveDC(m *pram.Machine, g *grammar.Linear, w []byte) ([]Step, bool) {
	n := len(w)
	if n == 0 {
		return nil, false
	}
	ctx := newTraceCtx(m, g, w)
	// The caches deliberately outlive the recursion for the extraction
	// walk; on a cancellation abort nothing will walk them, so hand their
	// slabs back to the arena before the unwind continues. (The matrix the
	// combine helpers were building is released by their own defers.)
	defer func() {
		if rec := recover(); rec != nil {
			for _, r := range ctx.triCache {
				r.Release()
			}
			for _, r := range ctx.rectCache {
				r.Release()
			}
			panic(rec)
		}
	}()
	reach := ctx.tri(0, n-1, 1)

	in := triIn(0, n-1)
	start := vertex{cell: [2]int{0, n - 1}, nt: g.Start}
	si, _ := in.lookup(start.cell)
	sIdx := si*ctx.k + start.nt
	var target vertex
	found := false
	for d := 0; d < n && !found; d++ {
		for _, r := range g.Term {
			if r.T == w[d] && reach.Get(sIdx, d*ctx.k+r.A) {
				target = vertex{cell: [2]int{d, d}, nt: r.A}
				found = true
				break
			}
		}
	}
	if !found {
		return nil, false
	}

	verts := ctx.pathTri(0, n-1, start, target)
	return vertsToSteps(w, verts), true
}

// vertex is one induced-graph vertex (cell, nonterminal).
type vertex struct {
	cell [2]int
	nt   int
}

// vertsToSteps converts a vertex path into derivation steps: each edge
// consumes one outer terminal; the final vertex closes with a terminal
// rule.
func vertsToSteps(w []byte, verts []vertex) []Step {
	var steps []Step
	for x := 0; x+1 < len(verts); x++ {
		cur, nxt := verts[x], verts[x+1]
		switch {
		case nxt.cell[0] == cur.cell[0]+1 && nxt.cell[1] == cur.cell[1]:
			steps = append(steps, Step{NT: cur.nt, Left: true, Pos: cur.cell[0]})
		case nxt.cell[0] == cur.cell[0] && nxt.cell[1] == cur.cell[1]-1:
			steps = append(steps, Step{NT: cur.nt, Pos: cur.cell[1]})
		default:
			panic("lincfl: non-adjacent vertices on extracted path")
		}
	}
	last := verts[len(verts)-1]
	steps = append(steps, Step{NT: last.nt, Close: true, Pos: last.cell[0]})
	return steps
}

// traceCtx wraps dcCtx with per-region reach caches.
type traceCtx struct {
	*dcCtx
	triCache  map[[2]int]*boolmat.Matrix
	rectCache map[[4]int]*boolmat.Matrix
}

func newTraceCtx(m *pram.Machine, g *grammar.Linear, w []byte) *traceCtx {
	return &traceCtx{
		dcCtx:     newDCCtx(m, g, w),
		triCache:  make(map[[2]int]*boolmat.Matrix),
		rectCache: make(map[[4]int]*boolmat.Matrix),
	}
}

// tri/rect with caching: identical recursion, memoized results. The
// trace recursion re-announces the "lincfl.tri" fault point so abort
// tests can cancel mid-extraction, where the caches hold live slabs.
func (t *traceCtx) tri(lo, hi, depth int) *boolmat.Matrix {
	faultpoint.Hit("lincfl.tri")
	key := [2]int{lo, hi}
	if r, ok := t.triCache[key]; ok {
		return r
	}
	var r *boolmat.Matrix
	if lo == hi {
		r = boolmat.Identity(t.k)
	} else {
		mid := (lo + hi) / 2
		rl := t.tri(lo, mid, depth+1)
		rr := t.tri(mid+1, hi, depth+1)
		rq := t.rect(lo, mid, mid+1, hi, depth+1)
		r = t.dcCtx.combineTri(lo, hi, rl, rr, rq)
	}
	t.triCache[key] = r
	return r
}

func (t *traceCtx) rect(a, b, c, d, depth int) *boolmat.Matrix {
	key := [4]int{a, b, c, d}
	if r, ok := t.rectCache[key]; ok {
		return r
	}
	r := t.rectUncached(a, b, c, d, depth)
	t.rectCache[key] = r
	return r
}

func (t *traceCtx) rectUncached(a, b, c, d, depth int) *boolmat.Matrix {
	ctx := t.dcCtx
	if a == b && c == d {
		return boolmat.Identity(ctx.k)
	}
	// The combine helpers release their own intermediates; the children
	// stay alive in the caches for the extraction walk.
	if a == b {
		m2 := (c + d) / 2
		rw := t.rect(a, b, c, m2, depth+1)
		re := t.rect(a, b, m2+1, d, depth+1)
		return ctx.combineRectRow(a, b, c, d, rw, re)
	}
	if c == d {
		m1 := (a + b) / 2
		rn := t.rect(a, m1, c, d, depth+1)
		rs := t.rect(m1+1, b, c, d, depth+1)
		return ctx.combineRectCol(a, b, c, d, rn, rs)
	}
	m1 := (a + b) / 2
	m2 := (c + d) / 2
	rnw := t.rect(a, m1, c, m2, depth+1)
	rne := t.rect(a, m1, m2+1, d, depth+1)
	rsw := t.rect(m1+1, b, c, m2, depth+1)
	rse := t.rect(m1+1, b, m2+1, d, depth+1)
	return ctx.combineRectQuad(a, b, c, d, rnw, rne, rsw, rse)
}

package lincfl

import (
	"partree/internal/boolmat"
	"partree/internal/engine"
	"partree/internal/faultpoint"
	"partree/internal/grammar"
	"partree/internal/pram"
)

// The parallel recognizer (Theorem 8.1) works on the induced graph
// IG(G,w): vertices (i,j,A) for intervals 0 ≤ i ≤ j < n, edges consuming
// the outermost terminal on either side. w ∈ L(G) iff some diagonal vertex
// (d,d,q) with q → w_d is reachable from (0,n-1,Start) (Claim 8.1).
//
// The triangle of intervals is split by a separator through the middle:
// two half-size triangles L = T(lo,mid), R = T(mid+1,hi) and the square
// Q = rows lo..mid × cols mid+1..hi between them, itself split
// recursively into quadrants. For every region only the reachability
// between its boundary vertices is kept:
//
//	triangle: IN = first row ∪ last column, OUT = the diagonal cells
//	square:   IN = top row ∪ right column, OUT = left column ∪ bottom row
//
// (paths only move down (i+1) or left (j-1), so they enter and leave a
// region exactly through those boundaries). Combining regions takes one
// Boolean matrix product per triangle, single-row or single-column
// rectangle, and three per quadrant split — each a child's reachability
// composed with what its exit boundary reaches in the parent — giving the
// processor recurrence P(n) = max(4·P(n/2), M(n)) = O(M(n)). Moving state
// from one region's boundary to the next is data movement, not
// multiplication (route.go).

// DCResult carries the recognition verdict together with the measurements
// the experiment harness reports.
type DCResult struct {
	Accepted bool
	// Products is the number of Boolean reachability products performed
	// — the M(n) work Theorem 8.1 is parameterized by. Boundary moves
	// between regions are counted PRAM steps, not products.
	Products int
	// WordOps is the number of 64-bit word operations across products.
	WordOps int64
	// Depth is the recursion depth (the parallel critical path is
	// O(Depth · log n) products deep, each O(log n) CRCW time).
	Depth int
}

type dcCtx struct {
	g     *grammar.Linear
	w     []byte
	k     int // number of nonterminals
	m     *pram.Machine
	cnt   *boolmat.OpCounter
	prods int
	depth int

	// K×K rule blocks per terminal t; terminals without rules share one
	// all-false block.
	left  [256]*boolmat.Matrix // [A][B] = A → tB
	right [256]*boolmat.Matrix // [A][B] = A → Bt
}

// newDCCtx builds the recognizer context for g on w, with the rule
// blocks the boundary crossings route through.
func newDCCtx(m *pram.Machine, g *grammar.Linear, w []byte) *dcCtx {
	ctx := &dcCtx{g: g, w: w, k: g.NumNT, m: m, cnt: &boolmat.OpCounter{}}
	empty := boolmat.New(ctx.k, ctx.k)
	for t := range ctx.left {
		ctx.left[t], ctx.right[t] = empty, empty
	}
	block := func(b **boolmat.Matrix) *boolmat.Matrix {
		if *b == empty {
			*b = boolmat.New(ctx.k, ctx.k)
		}
		return *b
	}
	for _, r := range g.Left {
		block(&ctx.left[r.T]).Set(r.A, r.B, true)
	}
	for _, r := range g.Right {
		block(&ctx.right[r.T]).Set(r.A, r.B, true)
	}
	return ctx
}

// release returns every matrix to the workspace arena.
func release(ms ...*boolmat.Matrix) {
	for _, m := range ms {
		m.Release()
	}
}

// RecognizeDC reports whether w ∈ L(G) using the separator
// divide-and-conquer with Boolean matrix multiplication.
func RecognizeDC(m *pram.Machine, g *grammar.Linear, w []byte) *DCResult {
	res := &DCResult{}
	if len(w) == 0 {
		return res
	}
	defer m.Phase("lincfl.RecognizeDC")()
	ctx := newDCCtx(m, g, w)

	n := len(w)
	reach := ctx.tri(0, n-1, 1)
	// Start vertex: cell (0, n-1) — the top-right corner, which is
	// in-index (n-1) of the triangle's first row (or 0 when n == 1).
	in := triIn(0, n-1)
	si, _ := in.lookup([2]int{0, n - 1})
	startIdx := si*ctx.k + g.Start
	for d := 0; d < n; d++ {
		for _, r := range ctx.g.Term {
			if r.T == w[d] && reach.Get(startIdx, d*ctx.k+r.A) {
				res.Accepted = true
			}
		}
	}
	res.Products = ctx.prods
	res.WordOps = ctx.cnt.Load()
	res.Depth = ctx.depth
	reach.Release()
	return res
}

// boundary is an ordered list of grid cells along one edge of a region.
// Each of the four shapes (triangle/rectangle entry/exit) has a closed
// form, so the list is never materialized: cell(i) and lookup compute
// both directions arithmetically and a boundary is a plain value — the
// separator recursion creates millions of them, and a map-backed index
// used to dominate the recognizer's allocation profile.
type boundary struct {
	kind       bkind
	a, b, c, d int // rows a..b, cols c..d (triangles use a..b for both)
}

type bkind uint8

const (
	bTriIn   bkind = iota // first row, then last column (minus the shared corner)
	bTriOut               // the diagonal
	bRectIn               // top row, then right column (minus the shared corner)
	bRectOut              // left column, then bottom row (minus the shared corner)
)

// size returns the number of cells on the boundary.
func (bd boundary) size() int {
	switch bd.kind {
	case bTriIn:
		return 2*(bd.b-bd.a) + 1
	case bTriOut:
		return bd.b - bd.a + 1
	default: // bRectIn, bRectOut
		return (bd.b - bd.a) + (bd.d - bd.c) + 1
	}
}

// cell returns the i-th cell in boundary order.
func (bd boundary) cell(i int) [2]int {
	switch bd.kind {
	case bTriIn:
		if row := bd.b - bd.a + 1; i < row {
			return [2]int{bd.a, bd.a + i}
		} else {
			return [2]int{bd.a + 1 + (i - row), bd.b}
		}
	case bTriOut:
		return [2]int{bd.a + i, bd.a + i}
	case bRectIn:
		if row := bd.d - bd.c + 1; i < row {
			return [2]int{bd.a, bd.c + i}
		} else {
			return [2]int{bd.a + 1 + (i - row), bd.d}
		}
	default: // bRectOut
		if col := bd.b - bd.a + 1; i < col {
			return [2]int{bd.a + i, bd.c}
		} else {
			return [2]int{bd.b, bd.c + 1 + (i - col)}
		}
	}
}

// lookup is the inverse of cell: the position of a cell on the boundary.
func (bd boundary) lookup(cell [2]int) (int, bool) {
	i, j := cell[0], cell[1]
	switch bd.kind {
	case bTriIn:
		if i == bd.a && j >= bd.a && j <= bd.b {
			return j - bd.a, true
		}
		if j == bd.b && i > bd.a && i <= bd.b {
			return (bd.b - bd.a + 1) + (i - bd.a - 1), true
		}
	case bTriOut:
		if i == j && i >= bd.a && i <= bd.b {
			return i - bd.a, true
		}
	case bRectIn:
		if i == bd.a && j >= bd.c && j <= bd.d {
			return j - bd.c, true
		}
		if j == bd.d && i > bd.a && i <= bd.b {
			return (bd.d - bd.c + 1) + (i - bd.a - 1), true
		}
	case bRectOut:
		if j == bd.c && i >= bd.a && i <= bd.b {
			return i - bd.a, true
		}
		if i == bd.b && j > bd.c && j <= bd.d {
			return (bd.b - bd.a + 1) + (j - bd.c - 1), true
		}
	}
	return 0, false
}

// triIn is the triangle's entry boundary: first row, then last column
// (excluding the shared corner).
func triIn(lo, hi int) boundary { return boundary{kind: bTriIn, a: lo, b: hi} }

// triOut is the triangle's exit boundary: the diagonal.
func triOut(lo, hi int) boundary { return boundary{kind: bTriOut, a: lo, b: hi} }

// rectIn: top row, then right column (excluding the shared corner).
func rectIn(a, b, c, d int) boundary { return boundary{kind: bRectIn, a: a, b: b, c: c, d: d} }

// rectOut: left column, then bottom row (excluding the shared corner).
func rectOut(a, b, c, d int) boundary { return boundary{kind: bRectOut, a: a, b: b, c: c, d: d} }

func (ctx *dcCtx) mul(a, b *boolmat.Matrix) *boolmat.Matrix {
	ctx.prods++
	ctx.cnt.Add(int64(a.R) * int64(a.C) * int64((b.C+63)/64))
	// Small block products (most of the separator recursion's, by count)
	// drop out of the PRAM machinery entirely below the profile's cutover
	// — the serial cache-blocked kernel for one counted step, skipping
	// both the statement dispatch and the per-product phase bookkeeping.
	// The counted word-op total above is model-level and unchanged.
	if cut := engine.LinCFLSerialWords(); cut > 0 && boolmat.EstMulWords(a, b) <= int64(cut) {
		out := boolmat.Mul(a, b)
		ctx.m.Step(1)
		return out
	}
	return boolmat.MulPar(ctx.m, a, b)
}

func (ctx *dcCtx) noteDepth(d int) {
	if d > ctx.depth {
		ctx.depth = d
	}
}

// tri computes the triangle reachability IN×OUT.
func (ctx *dcCtx) tri(lo, hi, depth int) *boolmat.Matrix {
	ctx.noteDepth(depth)
	faultpoint.Hit("lincfl.tri")
	if lo == hi {
		return boolmat.Identity(ctx.k)
	}
	mid := (lo + hi) / 2
	// A cancellation abort below (inside any product's For) unwinds this
	// frame; the already-built children must be released on the way up —
	// the combine helpers release their own intermediates.
	var rl, rr, rq *boolmat.Matrix
	defer func() {
		if rec := recover(); rec != nil {
			release(rl, rr, rq)
			panic(rec)
		}
	}()
	rl = ctx.tri(lo, mid, depth+1)
	rr = ctx.tri(mid+1, hi, depth+1)
	rq = ctx.rect(lo, mid, mid+1, hi, depth+1)
	res := ctx.combineTri(lo, hi, rl, rr, rq)
	// The children are fully folded into res; recycle their slabs for the
	// sibling recursions. (The caching extractor keeps its children alive
	// instead — see derive_dc.go.)
	release(rl, rr, rq)
	return res
}

// combineTri assembles a triangle's boundary reachability from its three
// pieces' matrices — shared with the caching recursion in derive_dc.go.
func (ctx *dcCtx) combineTri(lo, hi int, rl, rr, rq *boolmat.Matrix) (res *boolmat.Matrix) {
	k := ctx.k
	mid := (lo + hi) / 2
	inT := triIn(lo, hi)
	outT := triOut(lo, hi)
	inL, outL := triIn(lo, mid), triOut(lo, mid)
	inR, outR := triIn(mid+1, hi), triOut(mid+1, hi)
	inQ, outQ := rectIn(lo, mid, mid+1, hi), rectOut(lo, mid, mid+1, hi)

	// Every intermediate is declared up front and nil'd as it is released
	// on the normal path, so a cancellation abort inside the product can
	// return exactly the still-live ones to the arena (Release is
	// nil-safe) before the unwind continues.
	var lFull, rFull, x, qFull *boolmat.Matrix
	defer func() {
		if rec := recover(); rec != nil {
			release(lFull, rFull, x, qFull, res)
			panic(rec)
		}
	}()

	// Region → OUT(T): L's and R's diagonals are part of T's, and Q exits
	// across column mid+1 into L or across row mid into R.
	lFull = ctx.place(rl, outL, outT) // IN(L) → OUT(T)
	rFull = ctx.place(rr, outR, outT) // IN(R) → OUT(T)
	x = boolmat.NewFromPool(outQ.size()*k, outT.size()*k)
	ctx.route(x, outQ, inL, crossLeft(mid+1), ctx.right[ctx.w[mid+1]], lFull)
	ctx.route(x, outQ, inR, crossDown(mid), ctx.left[ctx.w[mid]], rFull)
	qFull = ctx.mul(rq, x) // IN(Q) → OUT(T)
	x.Release()
	x = nil

	// IN(T) is partitioned among IN(L), IN(R) and IN(Q).
	res = boolmat.NewFromPool(inT.size()*k, outT.size()*k)
	ctx.route(res, inT, inL, same, nil, lFull)
	ctx.route(res, inT, inR, same, nil, rFull)
	ctx.route(res, inT, inQ, same, nil, qFull)
	ctx.m.Step(7) // two placements, five routings
	release(lFull, rFull, qFull)
	return res
}

// rect computes the rectangle reachability IN×OUT for rows a..b, cols c..d.
func (ctx *dcCtx) rect(a, b, c, d, depth int) *boolmat.Matrix {
	ctx.noteDepth(depth)
	if a == b && c == d {
		return boolmat.Identity(ctx.k)
	}
	var r1, r2, r3, r4 *boolmat.Matrix
	defer func() {
		if rec := recover(); rec != nil {
			release(r1, r2, r3, r4)
			panic(rec)
		}
	}()
	if a == b {
		// Single row: split columns.
		m2 := (c + d) / 2
		r1 = ctx.rect(a, b, c, m2, depth+1)
		r2 = ctx.rect(a, b, m2+1, d, depth+1)
		res := ctx.combineRectRow(a, b, c, d, r1, r2)
		release(r1, r2)
		return res
	}
	if c == d {
		// Single column: split rows.
		m1 := (a + b) / 2
		r1 = ctx.rect(a, m1, c, d, depth+1)
		r2 = ctx.rect(m1+1, b, c, d, depth+1)
		res := ctx.combineRectCol(a, b, c, d, r1, r2)
		release(r1, r2)
		return res
	}
	// Full quadrant split.
	m1 := (a + b) / 2
	m2 := (c + d) / 2
	r1 = ctx.rect(a, m1, c, m2, depth+1)
	r2 = ctx.rect(a, m1, m2+1, d, depth+1)
	r3 = ctx.rect(m1+1, b, c, m2, depth+1)
	r4 = ctx.rect(m1+1, b, m2+1, d, depth+1)
	res := ctx.combineRectQuad(a, b, c, d, r1, r2, r3, r4)
	release(r1, r2, r3, r4)
	return res
}

// combineRectRow assembles a single-row rectangle from its west/east
// halves. Like combineTri, it releases every intermediate it creates but
// leaves the child matrices to the caller (the extractor caches them).
func (ctx *dcCtx) combineRectRow(a, b, c, d int, rw, re *boolmat.Matrix) (res *boolmat.Matrix) {
	k := ctx.k
	inQ := rectIn(a, b, c, d)
	outQ := rectOut(a, b, c, d)
	m2 := (c + d) / 2
	inW, outW := rectIn(a, b, c, m2), rectOut(a, b, c, m2)
	inE, outE := rectIn(a, b, m2+1, d), rectOut(a, b, m2+1, d)
	var wFull, x, eFull *boolmat.Matrix
	defer func() {
		if rec := recover(); rec != nil {
			release(wFull, x, eFull, res)
			panic(rec)
		}
	}()
	wFull = ctx.place(rw, outW, outQ)
	// OUT(E) → OUT(Q): direct exits plus crossing left into W.
	x = boolmat.NewFromPool(outE.size()*k, outQ.size()*k)
	ctx.route(x, outE, inW, crossLeft(m2+1), ctx.right[ctx.w[m2+1]], wFull)
	ctx.addIdentity(x, outE, outQ)
	eFull = ctx.mul(re, x)
	x.Release()
	x = nil
	res = boolmat.NewFromPool(inQ.size()*k, outQ.size()*k)
	ctx.route(res, inQ, inW, same, nil, wFull)
	ctx.route(res, inQ, inE, same, nil, eFull)
	ctx.m.Step(5) // one placement, one identity, three routings
	release(wFull, eFull)
	return res
}

// combineRectCol assembles a single-column rectangle from its north/south
// halves.
func (ctx *dcCtx) combineRectCol(a, b, c, d int, rn, rs *boolmat.Matrix) (res *boolmat.Matrix) {
	k := ctx.k
	inQ := rectIn(a, b, c, d)
	outQ := rectOut(a, b, c, d)
	m1 := (a + b) / 2
	inN, outN := rectIn(a, m1, c, d), rectOut(a, m1, c, d)
	inS, outS := rectIn(m1+1, b, c, d), rectOut(m1+1, b, c, d)
	var sFull, x, nFull *boolmat.Matrix
	defer func() {
		if rec := recover(); rec != nil {
			release(sFull, x, nFull, res)
			panic(rec)
		}
	}()
	sFull = ctx.place(rs, outS, outQ)
	// OUT(N) → OUT(Q): direct exits plus crossing down into S.
	x = boolmat.NewFromPool(outN.size()*k, outQ.size()*k)
	ctx.route(x, outN, inS, crossDown(m1), ctx.left[ctx.w[m1]], sFull)
	ctx.addIdentity(x, outN, outQ)
	nFull = ctx.mul(rn, x)
	x.Release()
	x = nil
	res = boolmat.NewFromPool(inQ.size()*k, outQ.size()*k)
	ctx.route(res, inQ, inN, same, nil, nFull)
	ctx.route(res, inQ, inS, same, nil, sFull)
	ctx.m.Step(5) // one placement, one identity, three routings
	release(sFull, nFull)
	return res
}

// combineRectQuad assembles a rectangle from its four quadrants: SW
// first, then NW and SE (which exit through SW), then NE (which exits
// through NW and SE) — three products.
func (ctx *dcCtx) combineRectQuad(a, b, c, d int, rnw, rne, rsw, rse *boolmat.Matrix) (res *boolmat.Matrix) {
	k := ctx.k
	inQ := rectIn(a, b, c, d)
	outQ := rectOut(a, b, c, d)
	m1 := (a + b) / 2
	m2 := (c + d) / 2

	inNW, outNW := rectIn(a, m1, c, m2), rectOut(a, m1, c, m2)
	inNE, outNE := rectIn(a, m1, m2+1, d), rectOut(a, m1, m2+1, d)
	inSW, outSW := rectIn(m1+1, b, c, m2), rectOut(m1+1, b, c, m2)
	inSE, outSE := rectIn(m1+1, b, m2+1, d), rectOut(m1+1, b, m2+1, d)
	// Rule blocks for the two interior crossings: down across row m1,
	// left across column m2+1.
	downBlock, leftBlock := ctx.left[ctx.w[m1]], ctx.right[ctx.w[m2+1]]

	var swFull, x, nwFull, seFull, neFull *boolmat.Matrix
	defer func() {
		if rec := recover(); rec != nil {
			release(swFull, x, nwFull, seFull, neFull, res)
			panic(rec)
		}
	}()

	swFull = ctx.place(rsw, outSW, outQ)
	// OUT(NW) → OUT(Q): direct exits plus crossing down into SW.
	x = boolmat.NewFromPool(outNW.size()*k, outQ.size()*k)
	ctx.route(x, outNW, inSW, crossDown(m1), downBlock, swFull)
	ctx.addIdentity(x, outNW, outQ)
	nwFull = ctx.mul(rnw, x)
	x.Release()
	// OUT(SE) → OUT(Q): direct exits plus crossing left into SW.
	x = boolmat.NewFromPool(outSE.size()*k, outQ.size()*k)
	ctx.route(x, outSE, inSW, crossLeft(m2+1), leftBlock, swFull)
	ctx.addIdentity(x, outSE, outQ)
	seFull = ctx.mul(rse, x)
	x.Release()
	// OUT(NE) → OUT(Q): left into NW or down into SE; NE touches no exit.
	x = boolmat.NewFromPool(outNE.size()*k, outQ.size()*k)
	ctx.route(x, outNE, inNW, crossLeft(m2+1), leftBlock, nwFull)
	ctx.route(x, outNE, inSE, crossDown(m1), downBlock, seFull)
	neFull = ctx.mul(rne, x)
	x.Release()
	x = nil

	// IN(Q) is partitioned among IN(NW), IN(NE) and IN(SE).
	res = boolmat.NewFromPool(inQ.size()*k, outQ.size()*k)
	ctx.route(res, inQ, inNW, same, nil, nwFull)
	ctx.route(res, inQ, inNE, same, nil, neFull)
	ctx.route(res, inQ, inSE, same, nil, seFull)
	ctx.m.Step(10) // one placement, two identities, seven routings
	release(swFull, nwFull, seFull, neFull)
	return res
}

package lincfl

import (
	"cmp"
	"slices"
	"sync/atomic"

	"partree/internal/boolmat"
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
//
// The regions are a fixed function of n, so they are enumerated once,
// top-down, into a table of levels, and combined bottom-up: one PRAM
// statement per level combines all of its regions side by side, as the
// recurrence bills sibling regions. A combine's intermediates live in
// words the table reserves for it, so a combine allocates nothing. The
// recognizer reads the root's matrix; the deriver walks its accepting
// path down the same table (pathwalk.go).

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
	// Depth is the number of levels of the region table, one PRAM
	// statement each (the parallel critical path is Depth combines deep,
	// each O(log n) CRCW time).
	Depth int
}

type dcCtx struct {
	g     *grammar.Linear
	w     []byte
	k     int // number of nonterminals
	m     *pram.Machine
	procs int // m's processor count, which divides each product's rows

	// Products and their word operations, summed over the combines.
	prods, ops atomic.Int64

	// Rule pairs per terminal t: the set (A, B) of t's K×K rule block,
	// listed once per call so that no move scans the block.
	left  [256][]rulePair // A → tB
	right [256][]rulePair // A → Bt

	// The region table: regs[0] is the root triangle T(0, n−1), and
	// level d is regs[lv[d]:lv[d+1]]. Below the root, 1×1 cells get no
	// entry: they all read the identity id. Every entry's matrix lives in
	// slab, from word off, and its combine's intermediates in scratch,
	// the swords words from word soff. Levels combine one after another,
	// so every level reuses scratch, sized to the largest.
	regs    []region
	lv      []int
	slab    []uint64
	scratch []uint64
	id      *boolmat.Matrix
}

// region is one entry of the table: the triangle T(a, b) (tri, with c, d
// = a, b) or the rectangle rows a..b × cols c..d. newDCCtx fills in
// where its children and its words are, so that a combine derives
// none of it again.
type region struct {
	a, b, c, d int32
	child      int32 // index in regs of the first child that has an entry
	tri        bool
	cells      uint8 // bit j set when child j (combine order) is a 1×1 cell
	off        int   // first word of its matrix in slab
	soff       int   // first word of its combine's scratch
	swords     int   // words of its combine's scratch
}

func triRegion(lo, hi int32) region      { return region{a: lo, b: hi, c: lo, d: hi, tri: true} }
func rectRegion(a, b, c, d int32) region { return region{a: a, b: b, c: c, d: d} }
func (r *region) cell() bool             { return r.a == r.b && r.c == r.d }
func (r *region) holds(c [2]int) bool {
	return int(r.a) <= c[0] && c[0] <= int(r.b) && int(r.c) <= c[1] && c[1] <= int(r.d)
}

// dims returns the cell counts of the region's entry and exit boundaries,
// their size() without building them: the combines read them for every
// child's view.
func (r *region) dims() (in, out int) {
	if r.tri {
		return 2*int(r.b-r.a) + 1, int(r.b-r.a) + 1
	}
	n := int(r.b-r.a) + int(r.d-r.c) + 1
	return n, n
}

// scratchWords is the scratch region r's combine draws: the children's
// matrices widened to r's exit columns (IN(child) rows each), then one
// slot for the routed right factor of each product in turn, sized to the
// largest (a quad's products take NW's, SE's and NE's OUT rows in turn,
// and NW's is never the smaller). The last product's child (Q, E, N or
// NE) has no widened matrix here: its whole entry boundary lies on r's,
// so its product writes r's own rows. Sizes are counted in cells; every
// intermediate has |OUT(r)|·K columns.
func (r *region) scratchWords(k int) int {
	a, b, c, d := int(r.a), int(r.b), int(r.c), int(r.d)
	var cells int
	switch m2 := (c + d) / 2; {
	case r.tri: // L and R (2(b−a) cells), then OUT(Q)
		cells = 3 * (b - a)
	case a == b: // W, then OUT(E)
		cells = d - c + 1
	case c == d: // S, then OUT(N)
		cells = b - a + 1
	default: // SW, NW and SE, then OUT(NW)
		cells = 2*(b-a+d-c) - (d - m2) + (m2 - c) + 1
	}
	_, out := r.dims()
	return boolmat.Words(cells*k, out*k)
}

// bounds returns the region's entry and exit boundaries.
func (r *region) bounds() (in, out boundary) {
	a, b, c, d := int(r.a), int(r.b), int(r.c), int(r.d)
	if r.tri {
		return triIn(a, b), triOut(a, b)
	}
	return rectIn(a, b, c, d), rectOut(a, b, c, d)
}

// nkids returns the number of the region's children: a triangle's two
// halves and the square between them; a one-row or one-column
// rectangle's two halves; else a rectangle's four quadrants.
func (r *region) nkids() int {
	switch {
	case r.tri:
		return 3
	case r.a == r.b || r.c == r.d:
		return 2
	}
	return 4
}

// kid returns the corners of child j of the region in combine order: L,
// R and Q of a triangle; W and E of a one-row rectangle; N and S of a
// one-column one; else NW, NE, SW and SE, whose index bits pick the
// lower half of the rows (2) and the right half of the columns (1).
func (r *region) kid(j int) (a, b, c, d int32, tri bool) {
	a, b, c, d = r.a, r.b, r.c, r.d
	m1, m2 := (a+b)/2, (c+d)/2
	switch {
	case r.tri:
		switch j {
		case 0:
			return a, m1, a, m1, true
		case 1:
			return m1 + 1, b, m1 + 1, b, true
		}
		return a, m1, m1 + 1, b, false
	case a == b: // W, E: j picks the column half
	case c == d: // N, S: j picks the row half
		j <<= 1
	}
	if j&2 == 0 {
		b = m1
	} else {
		a = m1 + 1
	}
	if j&1 == 0 {
		d = m2
	} else {
		c = m2 + 1
	}
	return a, b, c, d, false
}

// rulePair is one rule A → tB or A → Bt, filed under its terminal t.
type rulePair struct {
	t    byte
	a, b int
}

// byTerminal files rules under their terminals: lists[t] holds t's pairs
// in (A, B) order without repeats, the order a scan of t's rule block
// finds them. The lists share rules' backing array, which it sorts.
func byTerminal(rules []rulePair) (lists [256][]rulePair) {
	slices.SortFunc(rules, func(x, y rulePair) int {
		return cmp.Or(cmp.Compare(x.t, y.t), cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
	})
	rules = slices.Compact(rules)
	for lo := 0; lo < len(rules); {
		hi := lo + 1
		for hi < len(rules) && rules[hi].t == rules[lo].t {
			hi++
		}
		lists[rules[lo].t] = rules[lo:hi:hi]
		lo = hi
	}
	return lists
}

// newDCCtx builds the recognizer context for g on w: the rule pairs the
// boundary crossings route through, and the region table, enumerated
// once top-down from T(0, n−1). Each level's children are appended in
// their parents' order, so a region's children with entries sit
// contiguously from its child index. The region matrices and the
// scratch share one allocation.
func newDCCtx(m *pram.Machine, g *grammar.Linear, w []byte) *dcCtx {
	ctx := &dcCtx{g: g, w: w, k: g.NumNT, m: m, procs: m.Processors()}
	rules := make([]rulePair, 0, len(g.Left)+len(g.Right))
	for _, r := range g.Left {
		rules = append(rules, rulePair{r.T, r.A, r.B})
	}
	ctx.left = byTerminal(rules)
	rules = rules[len(rules):]
	for _, r := range g.Right {
		rules = append(rules, rulePair{r.T, r.A, r.B})
	}
	ctx.right = byTerminal(rules)
	ctx.id = boolmat.New(ctx.k, ctx.k)
	for a := 0; a < ctx.k; a++ {
		ctx.id.Set(a, a, true)
	}

	// About n²/6 entries: a quadtree over the n²/2 cells has a third as
	// many inner nodes. A one-symbol word's root is a cell, with no level.
	n := len(w)
	ctx.regs = append(make([]region, 0, n*n/6+2*n), triRegion(0, int32(n-1)))
	ctx.lv = []int{0}
	words, most := 0, 0 // region words; scratch words of the largest level
	for lo := 0; lo < len(ctx.regs) && !ctx.regs[0].cell(); lo = ctx.lv[len(ctx.lv)-1] {
		hi := len(ctx.regs)
		level := 0 // scratch words of this level's regions so far
		for i := lo; i < hi; i++ {
			r := &ctx.regs[i]
			in, out := r.dims()
			r.off, r.soff, r.swords, r.child = words, level, r.scratchWords(ctx.k), int32(len(ctx.regs))
			words += boolmat.Words(in*ctx.k, out*ctx.k)
			level += r.swords
			var cells uint8
			for j := range r.nkids() {
				if a, b, c, d, tri := r.kid(j); a == b && c == d {
					cells |= 1 << j
				} else {
					ctx.regs = append(ctx.regs, region{a: a, b: b, c: c, d: d, tri: tri}) // may move r
				}
			}
			ctx.regs[i].cells = cells
		}
		most = max(most, level)
		ctx.lv = append(ctx.lv, hi)
	}
	slab := make([]uint64, words+most)
	ctx.slab, ctx.scratch = slab[:words], slab[words:]
	return ctx
}

// view returns region r's matrix: its words of the slab, or the shared
// identity for a cell.
func (ctx *dcCtx) view(r *region) boolmat.Matrix {
	if r.cell() {
		return *ctx.id
	}
	in, out := r.dims()
	return boolmat.On(in*ctx.k, out*ctx.k, ctx.slab[r.off:])
}

// scratchOf returns the scratch newDCCtx reserved for region r's combine.
func (ctx *dcCtx) scratchOf(r *region) scratch {
	return scratch{buf: ctx.scratch[r.soff:][:r.swords]}
}

// kids returns region r's children in combine order: their table
// entries, or the bare cell for a 1×1 child.
func (ctx *dcCtx) kids(r *region) (ks [4]region, n int) {
	next := r.child
	for j := range r.nkids() {
		if r.cells>>j&1 != 0 {
			a, b, c, d, tri := r.kid(j)
			ks[j] = region{a: a, b: b, c: c, d: d, tri: tri}
		} else {
			ks[j] = ctx.regs[next]
			next++
		}
		n++
	}
	return ks, n
}

// kidView returns the matrix of region r's child j: the shared identity
// for a cell, else its entry's view, which it stores in v. next is the
// table index of r's next child with an entry, which it advances.
func (ctx *dcCtx) kidView(r *region, j int, next *int32, v *boolmat.Matrix) *boolmat.Matrix {
	if r.cells>>j&1 != 0 {
		return ctx.id
	}
	*v = ctx.view(&ctx.regs[*next])
	*next++
	return v
}

// build combines the table bottom-up, one PRAM statement per level whose
// virtual processors are the level's regions. Each region's combine
// writes its matrix into its words of the slab, runs its products on
// the serial blocked kernel (a statement body cannot nest another
// statement) and returns its counted charge; the level charges its
// longest region as steps and all of them as work. The slab is one
// garbage-collected allocation per call that holds every intermediate
// too, so a cancellation that aborts a level statement at its barrier
// leaves nothing to release.
//
// A statement body tallies per chunk and never writes a shared word once
// per virtual processor: each chunk of regions sums its charge in
// locals and adds it to the level's totals once. The deepest levels at
// n = 257 hold 8 256 and 2 080 regions of a few microseconds each. When
// each region added to four shared words, two workers passed those
// cache lines between the cores, and a call cost a median 17.3 ms of
// CPU on two workers against 11.6 ms on one (2-CPU host); per chunk it
// costs the same on both.
func (ctx *dcCtx) build() {
	for d := len(ctx.lv) - 2; d >= 0; d-- {
		regs := ctx.regs[ctx.lv[d]:ctx.lv[d+1]]
		var steps, work atomic.Int64
		ctx.m.ForRange(len(regs), func(lo, hi int) {
			var t cost // t.steps is the chunk's longest combine
			for i := lo; i < hi; i++ {
				sc := ctx.scratchOf(&regs[i])
				c := ctx.combine(&regs[i], &sc)
				t.steps = max(t.steps, c.steps)
				t.work += c.work
				t.prods += c.prods
				t.ops += c.ops
			}
			work.Add(t.work)
			ctx.prods.Add(t.prods)
			ctx.ops.Add(t.ops)
			for s := steps.Load(); t.steps > s && !steps.CompareAndSwap(s, t.steps); s = steps.Load() {
			}
		})
		ctx.m.Charge(steps.Load(), work.Load())
	}
}

// combine builds region r's matrix from its children's, drawing its
// intermediates from sc.
func (ctx *dcCtx) combine(r *region, sc *scratch) cost {
	var vs [4]boolmat.Matrix
	next := r.child
	k0 := ctx.kidView(r, 0, &next, &vs[0])
	k1 := ctx.kidView(r, 1, &next, &vs[1])
	switch {
	case r.tri:
		faultpoint.Hit("lincfl.tri")
		return ctx.combineTri(r, k0, k1, ctx.kidView(r, 2, &next, &vs[2]), sc)
	case r.a == r.b:
		faultpoint.Hit("lincfl.rect")
		return ctx.combineRectRow(r, k0, k1, sc)
	case r.c == r.d:
		faultpoint.Hit("lincfl.rect")
		return ctx.combineRectCol(r, k0, k1, sc)
	}
	faultpoint.Hit("lincfl.rect")
	k2 := ctx.kidView(r, 2, &next, &vs[2])
	k3 := ctx.kidView(r, 3, &next, &vs[3])
	return ctx.combineRectQuad(r, k0, k1, k2, k3, sc)
}

// cost is a combine's counted charge — steps along its dependent chain
// (its moves, then ⌈rows/p⌉ per product, what one MulPar statement per
// product charged) and work over all its virtual processors — and its
// products with their word operations.
type cost struct{ steps, work, prods, ops int64 }

// mul ORs the reachability product a·b into out (all false) on the
// serial blocked kernel and counts it.
func (c *cost) mul(out, a, b *boolmat.Matrix) {
	c.prods++
	c.ops += int64(a.R) * int64(a.C) * int64((b.C+63)/64)
	boolmat.MulInto(out, a, b)
}

// scratch hands a combine its intermediates from the front of the words
// newDCCtx reserved for it: take returns the next matrix, all false, and
// drop hands back the last one taken. A combine's intermediates fill its
// reservation exactly, so the first take clears all of it at once and a
// drop clears the words it hands back: the words a small region's
// combine takes are too few to pay a clear per matrix.
type scratch struct {
	buf       []uint64
	top, peak int // words handed out now, and at most
}

func (s *scratch) take(r, c int) boolmat.Matrix {
	if s.top == 0 {
		clear(s.buf)
	}
	n := boolmat.Words(r, c)
	m := boolmat.On(r, c, s.buf[s.top:])
	s.top += n
	s.peak = max(s.peak, s.top)
	return m
}

func (s *scratch) drop(m *boolmat.Matrix) {
	n := boolmat.Words(m.R, m.C)
	s.top -= n
	clear(s.buf[s.top : s.top+n])
}

// rows returns the rows of region r's matrix at the source cells of a
// move's run: where passing the run would copy a child's rows, so that a
// product whose result would only be passed there writes them in place.
// The combine still charges that pass as a move, so the counted charge
// does not depend on where a product writes.
func (ctx *dcCtx) rows(r *region, mv run) boolmat.Matrix {
	_, out := r.dims()
	cols := out * ctx.k
	return boolmat.On(mv.n*ctx.k, cols, ctx.slab[r.off+boolmat.Words(mv.fi*ctx.k, cols):])
}

// rowSteps is the step charge of a product with a's rows.
func (ctx *dcCtx) rowSteps(a *boolmat.Matrix) int64 {
	return int64((a.R + ctx.procs - 1) / ctx.procs)
}

// accept looks for a diagonal vertex (d, d, A) with a terminal rule
// A → w_d that the start vertex (0, n−1, Start) reaches through the
// root's matrix.
func (ctx *dcCtx) accept(reach *boolmat.Matrix) (start, target vertex, ok bool) {
	n := len(ctx.w)
	// The start cell is the top-right corner: in-index n−1 of the root
	// triangle's first row (0 when n == 1).
	start = vertex{cell: [2]int{0, n - 1}, nt: ctx.g.Start}
	si, _ := triIn(0, n-1).lookup(start.cell)
	for d := 0; d < n; d++ {
		for _, r := range ctx.g.Term {
			if r.T == ctx.w[d] && reach.Get(si*ctx.k+start.nt, d*ctx.k+r.A) {
				return start, vertex{cell: [2]int{d, d}, nt: r.A}, true
			}
		}
	}
	return start, target, false
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
	ctx.build()
	root := ctx.view(&ctx.regs[0])
	_, _, res.Accepted = ctx.accept(&root)
	res.Products = int(ctx.prods.Load())
	res.WordOps = ctx.ops.Load()
	res.Depth = len(ctx.lv) - 1
	return res
}

// boundary is an ordered list of grid cells along one edge of a region.
// Each of the four shapes (triangle/rectangle entry/exit) has a closed
// form, so the list is never materialized: lookup computes a cell's
// position arithmetically and a boundary is a plain value.
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

// lookup returns the position of a cell on the boundary.
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

// combineTri assembles triangle r's boundary reachability into its
// matrix (all false) from its three pieces' matrices.
func (ctx *dcCtx) combineTri(r *region, rl, rr, rq *boolmat.Matrix, sc *scratch) cost {
	lo, hi := int(r.a), int(r.b)
	mid := (lo + hi) / 2
	mv := triRuns(lo, hi)
	cols := (hi - lo + 1) * ctx.k // OUT(T)
	var ch cost

	// Region → OUT(T): L's and R's diagonals are part of T's, and Q exits
	// across column mid+1 into L or across row mid into R.
	lFull := sc.take(rl.R, cols) // IN(L) → OUT(T)
	rFull := sc.take(rr.R, cols) // IN(R) → OUT(T)
	ctx.place(&lFull, rl, mv[0])
	ctx.place(&rFull, rr, mv[1])
	x := sc.take(rq.C, cols) // OUT(Q) → OUT(T)
	ctx.route(&x, mv[2], ctx.right[ctx.w[mid+1]], &lFull)
	ctx.route(&x, mv[3], ctx.left[ctx.w[mid]], &rFull)

	// IN(T) is partitioned among IN(L), IN(R) and IN(Q). All of IN(Q)
	// lies on IN(T), so Q's product writes its rows of T's matrix.
	res := ctx.view(r)
	ctx.pass(&res, mv[4], &lFull)
	ctx.pass(&res, mv[5], &rFull)
	qRows := ctx.rows(r, mv[6]) // IN(Q) → OUT(T)
	ch.mul(&qRows, rq, &x)
	// Two placements and five routings around one product.
	ch.steps, ch.work = 7+ctx.rowSteps(rq), 7+int64(rq.R)
	return ch
}

// combineRectRow assembles the single-row rectangle r over columns c..d
// into its matrix from its west/east halves.
func (ctx *dcCtx) combineRectRow(r *region, rw, re *boolmat.Matrix, sc *scratch) cost {
	c, d := int(r.c), int(r.d)
	m2 := (c + d) / 2
	mv := rowRuns(c, d)
	cols := (d - c + 1) * ctx.k // OUT(Q)
	var ch cost
	wFull := sc.take(rw.R, cols)
	ctx.place(&wFull, rw, mv[0])
	// OUT(E) → OUT(Q): direct exits plus crossing left into W.
	x := sc.take(re.C, cols)
	ctx.route(&x, mv[1], ctx.right[ctx.w[m2+1]], &wFull)
	ctx.addIdentity(&x, mv[2])
	res := ctx.view(r)
	ctx.pass(&res, mv[3], &wFull)
	eRows := ctx.rows(r, mv[4]) // all of IN(E) lies on IN(Q)
	ch.mul(&eRows, re, &x)
	// One placement, one identity and three routings around one product.
	ch.steps, ch.work = 5+ctx.rowSteps(re), 5+int64(re.R)
	return ch
}

// combineRectCol assembles the single-column rectangle r over rows a..b
// into its matrix from its north/south halves.
func (ctx *dcCtx) combineRectCol(r *region, rn, rs *boolmat.Matrix, sc *scratch) cost {
	a, b := int(r.a), int(r.b)
	m1 := (a + b) / 2
	mv := colRuns(a, b)
	cols := (b - a + 1) * ctx.k // OUT(Q)
	var ch cost
	sFull := sc.take(rs.R, cols)
	ctx.place(&sFull, rs, mv[0])
	// OUT(N) → OUT(Q): direct exits plus crossing down into S.
	x := sc.take(rn.C, cols)
	ctx.route(&x, mv[1], ctx.left[ctx.w[m1]], &sFull)
	ctx.addIdentity(&x, mv[2])
	nRows := ctx.rows(r, mv[3]) // all of IN(N) lies on IN(Q)
	ch.mul(&nRows, rn, &x)
	res := ctx.view(r)
	ctx.pass(&res, mv[4], &sFull)
	// One placement, one identity and three routings around one product.
	ch.steps, ch.work = 5+ctx.rowSteps(rn), 5+int64(rn.R)
	return ch
}

// combineRectQuad assembles rectangle r into its matrix from its four
// quadrants: SW first, then NW and SE (which exit through SW), then NE
// (which exits through NW and SE) — three products, whose right factors
// take one scratch slot in turn.
func (ctx *dcCtx) combineRectQuad(r *region, rnw, rne, rsw, rse *boolmat.Matrix, sc *scratch) cost {
	a, b, c, d := int(r.a), int(r.b), int(r.c), int(r.d)
	m1, m2 := (a+b)/2, (c+d)/2
	mv := quadRuns(a, b, c, d)
	cols := (b - a + d - c + 1) * ctx.k // OUT(Q)
	// Rule pairs for the two interior crossings: down across row m1,
	// left across column m2+1.
	downRules, leftRules := ctx.left[ctx.w[m1]], ctx.right[ctx.w[m2+1]]
	var ch cost

	swFull := sc.take(rsw.R, cols)
	nwFull := sc.take(rnw.R, cols)
	seFull := sc.take(rse.R, cols)
	ctx.place(&swFull, rsw, mv[0])
	// OUT(NW) → OUT(Q): direct exits plus crossing down into SW.
	x := sc.take(rnw.C, cols)
	ctx.route(&x, mv[1], downRules, &swFull)
	ctx.addIdentity(&x, mv[2])
	ch.mul(&nwFull, rnw, &x)
	sc.drop(&x)
	// OUT(SE) → OUT(Q): direct exits plus crossing left into SW.
	x = sc.take(rse.C, cols)
	ctx.route(&x, mv[3], leftRules, &swFull)
	ctx.addIdentity(&x, mv[4])
	ch.mul(&seFull, rse, &x)
	sc.drop(&x)
	// OUT(NE) → OUT(Q): left into NW or down into SE; NE touches no exit.
	x = sc.take(rne.C, cols)
	ctx.route(&x, mv[5], leftRules, &nwFull)
	ctx.route(&x, mv[6], downRules, &seFull)

	// IN(Q) is partitioned among IN(NW), IN(NE) and IN(SE). All of
	// IN(NE) lies on IN(Q), so NE's product writes its rows of Q's matrix.
	res := ctx.view(r)
	ctx.pass(&res, mv[7], &nwFull)
	ctx.pass(&res, mv[9], &seFull)
	neRows := ctx.rows(r, mv[8])
	ch.mul(&neRows, rne, &x)
	// One placement, two identities and seven routings; the NW and SE
	// products are independent, and NE's waits for both.
	ch.steps = 10 + max(ctx.rowSteps(rnw), ctx.rowSteps(rse)) + ctx.rowSteps(rne)
	ch.work = 10 + int64(rnw.R+rse.R+rne.R)
	return ch
}

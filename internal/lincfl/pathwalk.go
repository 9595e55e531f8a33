package lincfl

// Path extraction over the region table. The walk refines the accepting
// pair (source vertex, diagonal target) down the table by child index.
// A split region's children form a small DAG, since paths only move down
// or left: a triangle's square exits into its left or right half, a
// one-row rectangle's east half into its west half, a one-column
// rectangle's north half into its south half, and a quadrant split runs
// NE → {NW, SE} → SW. A path that leaves a child never re-enters it, so
// the walk stays inside the child holding the source when that child
// also holds the target, and otherwise picks an explicit waypoint on the
// line it crosses into the next child, reading only the children's own
// matrices.

// exit is one edge of a split region's child DAG: paths leave child
// from across the line cm into child to.
type exit struct {
	to int
	cm cellMap
}

// exits returns the edges out of child x of region r (children indexed
// in combine order, as kid numbers them).
func (r *region) exits(x int) []exit {
	m1, m2 := int(r.a+r.b)/2, int(r.c+r.d)/2
	switch {
	case r.tri:
		if x == 2 { // the square, into L or R
			return []exit{{0, crossLeft(m1 + 1)}, {1, crossDown(m1)}}
		}
	case r.a == r.b:
		if x == 1 { // east into west
			return []exit{{0, crossLeft(m2 + 1)}}
		}
	case r.c == r.d:
		if x == 0 { // north into south
			return []exit{{1, crossDown(m1)}}
		}
	default:
		switch x {
		case 0: // NW into SW
			return []exit{{2, crossDown(m1)}}
		case 1: // NE into NW or SE
			return []exit{{0, crossLeft(m2 + 1)}, {3, crossDown(m1)}}
		case 3: // SE into SW
			return []exit{{2, crossLeft(m2 + 1)}}
		}
	}
	return nil
}

// get reports whether region x's matrix reaches tv ∈ OUT(x) from
// s ∈ IN(x).
func (ctx *dcCtx) get(x *region, s, tv vertex) bool {
	in, out := x.bounds()
	si, ok := in.lookup(s.cell)
	if !ok {
		return false
	}
	ti, ok := out.lookup(tv.cell)
	m := ctx.view(x)
	return ok && m.Get(si*ctx.k+s.nt, ti*ctx.k+tv.nt)
}

// cross looks for a waypoint where a path from s ∈ IN(x) leaves region
// x across the line cm: a vertex u on that line which x reaches from s,
// and a rule carrying u's nonterminal over the line to a landed vertex
// that next accepts.
func (ctx *dcCtx) cross(x *region, s vertex, cm cellMap, next func(vertex) bool) (u, land vertex, ok bool) {
	lo, hi, rules := int(x.a), int(x.b), ctx.right[ctx.w[cm.line]]
	if cm.kind == cmDown {
		lo, hi, rules = int(x.c), int(x.d), ctx.left[ctx.w[cm.line]]
	}
	for p := lo; p <= hi; p++ {
		cell := [2]int{p, cm.line}
		if cm.kind == cmDown {
			cell = [2]int{cm.line, p}
		}
		to, _ := cm.apply(cell)
		for _, r := range rules {
			u, land = vertex{cell: cell, nt: r.a}, vertex{cell: to, nt: r.b}
			if ctx.get(x, s, u) && next(land) {
				return u, land, true
			}
		}
	}
	return u, land, false
}

// path returns the vertex path from s ∈ IN(r) to tv ∈ OUT(r). The pair
// must be reachable (callers check first).
func (ctx *dcCtx) path(r region, s, tv vertex) []vertex {
	if r.cell() {
		if s != tv {
			panic("lincfl: path extraction reached an inconsistent cell")
		}
		return []vertex{s}
	}
	ks, n := ctx.kids(&r)
	x := 0
	for x < n && !ks[x].holds(s.cell) {
		x++
	}
	return ctx.walk(&r, ks[:n], x, s, tv)
}

// walk returns the path from s, on the entry boundary of child x of r,
// to tv: inside x when x holds tv, else through x's first exit from
// which tv is reachable.
func (ctx *dcCtx) walk(r *region, ks []region, x int, s, tv vertex) []vertex {
	if ks[x].holds(tv.cell) {
		return ctx.path(ks[x], s, tv)
	}
	for _, e := range r.exits(x) {
		u, land, ok := ctx.cross(&ks[x], s, e.cm, func(v vertex) bool { return ctx.reaches(r, ks, e.to, v, tv) })
		if ok {
			return append(ctx.path(ks[x], s, u), ctx.walk(r, ks, e.to, land, tv)...)
		}
	}
	panic("lincfl: no waypoint despite reachability")
}

// reaches reports whether v, on the entry boundary of child y of r,
// reaches tv through y and the children after it.
func (ctx *dcCtx) reaches(r *region, ks []region, y int, v, tv vertex) bool {
	if ks[y].holds(tv.cell) {
		return ctx.get(&ks[y], v, tv)
	}
	for _, e := range r.exits(y) {
		if _, _, ok := ctx.cross(&ks[y], v, e.cm, func(w vertex) bool { return ctx.reaches(r, ks, e.to, w, tv) }); ok {
			return true
		}
	}
	return false
}

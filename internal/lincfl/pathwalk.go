package lincfl

// Path extraction over the cached region reachability matrices. The walk
// refines the accepting pair (source vertex, diagonal target) down the
// region tree, picking an explicit waypoint on every separator interface
// it crosses. For rectangles the walk uses simple alternating binary
// splits — t.rect caches whatever sub-rectangles the queries need, so the
// cost per level is one boundary scan plus the cached lookups.

func (t *traceCtx) triReaches(lo, hi int, s, tv vertex) bool {
	in, out := triIn(lo, hi), triOut(lo, hi)
	si, ok := in.lookup(s.cell)
	if !ok {
		return false
	}
	ti, ok := out.lookup(tv.cell)
	if !ok {
		return false
	}
	return t.tri(lo, hi, 1).Get(si*t.k+s.nt, ti*t.k+tv.nt)
}

func (t *traceCtx) rectReaches(a, b, c, d int, s, tv vertex) bool {
	in, out := rectIn(a, b, c, d), rectOut(a, b, c, d)
	si, ok := in.lookup(s.cell)
	if !ok {
		return false
	}
	ti, ok := out.lookup(tv.cell)
	if !ok {
		return false
	}
	return t.rect(a, b, c, d, 1).Get(si*t.k+s.nt, ti*t.k+tv.nt)
}

// pathTri returns the vertex path from s ∈ IN(T(lo,hi)) to the diagonal
// vertex tv. The pair must be reachable (callers check first).
func (t *traceCtx) pathTri(lo, hi int, s, tv vertex) []vertex {
	if lo == hi {
		if s.cell != tv.cell || s.nt != tv.nt {
			panic("lincfl: path extraction reached an inconsistent base cell")
		}
		return []vertex{s}
	}
	mid := (lo + hi) / 2
	d := tv.cell[0]

	switch {
	case s.cell[1] <= mid: // s inside L
		return t.pathTri(lo, mid, s, tv)
	case s.cell[0] >= mid+1: // s inside R
		return t.pathTri(mid+1, hi, s, tv)
	}
	// s inside the square Q.
	if d <= mid {
		// Exit Q through its left column into L.
		block := t.right[t.w[mid+1]]
		for i := lo; i <= mid; i++ {
			for a := 0; a < t.k; a++ {
				m := vertex{cell: [2]int{i, mid + 1}, nt: a}
				if !t.rectReaches(lo, mid, mid+1, hi, s, m) {
					continue
				}
				for bnt := 0; bnt < t.k; bnt++ {
					if !block.Get(a, bnt) {
						continue
					}
					land := vertex{cell: [2]int{i, mid}, nt: bnt}
					if t.triReaches(lo, mid, land, tv) {
						p := t.pathRect(lo, mid, mid+1, hi, s, m)
						return append(p, t.pathTri(lo, mid, land, tv)...)
					}
				}
			}
		}
		panic("lincfl: no waypoint into L despite reachability")
	}
	// Exit Q through its bottom row into R.
	block := t.left[t.w[mid]]
	for j := mid + 1; j <= hi; j++ {
		for a := 0; a < t.k; a++ {
			m := vertex{cell: [2]int{mid, j}, nt: a}
			if !t.rectReaches(lo, mid, mid+1, hi, s, m) {
				continue
			}
			for bnt := 0; bnt < t.k; bnt++ {
				if !block.Get(a, bnt) {
					continue
				}
				land := vertex{cell: [2]int{mid + 1, j}, nt: bnt}
				if t.triReaches(mid+1, hi, land, tv) {
					p := t.pathRect(lo, mid, mid+1, hi, s, m)
					return append(p, t.pathTri(mid+1, hi, land, tv)...)
				}
			}
		}
	}
	panic("lincfl: no waypoint into R despite reachability")
}

// pathRect returns the vertex path from s ∈ IN(rect) to tv ∈ OUT(rect),
// splitting columns first, then rows.
func (t *traceCtx) pathRect(a, b, c, d int, s, tv vertex) []vertex {
	if a == b && c == d {
		if s.cell != tv.cell || s.nt != tv.nt {
			panic("lincfl: rectangle base cell mismatch")
		}
		return []vertex{s}
	}
	if c < d {
		m2 := (c + d) / 2
		sWest := s.cell[1] <= m2
		tWest := tv.cell[1] <= m2
		switch {
		case sWest && tWest:
			return t.pathRect(a, b, c, m2, s, tv)
		case sWest && !tWest:
			panic("lincfl: path cannot move right")
		case !sWest && !tWest:
			return t.pathRect(a, b, m2+1, d, s, tv)
		}
		// East → West through the column interface.
		block := t.right[t.w[m2+1]]
		for i := a; i <= b; i++ {
			for ant := 0; ant < t.k; ant++ {
				m := vertex{cell: [2]int{i, m2 + 1}, nt: ant}
				if !t.rectReaches(a, b, m2+1, d, s, m) {
					continue
				}
				for bnt := 0; bnt < t.k; bnt++ {
					if !block.Get(ant, bnt) {
						continue
					}
					land := vertex{cell: [2]int{i, m2}, nt: bnt}
					if t.rectReaches(a, b, c, m2, land, tv) {
						p := t.pathRect(a, b, m2+1, d, s, m)
						return append(p, t.pathRect(a, b, c, m2, land, tv)...)
					}
				}
			}
		}
		panic("lincfl: no column waypoint despite reachability")
	}
	// Single column of cells: split rows.
	m1 := (a + b) / 2
	sNorth := s.cell[0] <= m1
	tNorth := tv.cell[0] <= m1
	switch {
	case sNorth && tNorth:
		return t.pathRect(a, m1, c, d, s, tv)
	case !sNorth && tNorth:
		panic("lincfl: path cannot move up")
	case !sNorth && !tNorth:
		return t.pathRect(m1+1, b, c, d, s, tv)
	}
	block := t.left[t.w[m1]]
	for j := c; j <= d; j++ {
		for ant := 0; ant < t.k; ant++ {
			m := vertex{cell: [2]int{m1, j}, nt: ant}
			if !t.rectReaches(a, m1, c, d, s, m) {
				continue
			}
			for bnt := 0; bnt < t.k; bnt++ {
				if !block.Get(ant, bnt) {
					continue
				}
				land := vertex{cell: [2]int{m1 + 1, j}, nt: bnt}
				if t.rectReaches(m1+1, b, c, d, land, tv) {
					p := t.pathRect(a, m1, c, d, s, m)
					return append(p, t.pathRect(m1+1, b, c, d, land, tv)...)
				}
			}
		}
	}
	panic("lincfl: no row waypoint despite reachability")
}

package lincfl

import "partree/internal/boolmat"

// Boundary state moves between neighbouring regions without Boolean
// products. A region matrix is |IN|·K × |OUT|·K, row/column index
// cell·K + nonterminal; handing it to the next region is pure data
// movement on those K-row (or K-column) blocks:
//
//   - placement copies a matrix's column blocks to the positions their
//     cells hold on a larger exit boundary;
//   - passing gathers rows of a matrix unchanged into the rows of the
//     cells that reach them, and routing gathers them across one
//     consumed terminal, where the terminal's rule pairs (A, B) pick
//     which nonterminal rows are ORed together;
//   - addIdentity sets the identity bits of cells shared by two
//     boundaries directly into a matrix.
//
// Each is one constant-time CRCW statement (one processor per row), so
// the combine helpers charge them as counted PRAM steps and leave the
// M(n) products — Theorem 8.1's only non-constant cost — to boolmat.

// A cellMap carries a cell on one region's boundary to the cell it
// reaches on the next region's: unchanged, or across one consumed
// terminal.
type cellMap struct {
	kind cmKind
	line int // the crossed column (cmLeft) or row (cmDown)
}

type cmKind uint8

const (
	cmSame cmKind = iota // the cell itself (regions whose boundaries share cells)
	cmLeft               // (i, line) → (i, line-1), consuming w[line]
	cmDown               // (line, j) → (line+1, j), consuming w[line]
)

// crossLeft maps (i, col) → (i, col-1), consuming w[col].
func crossLeft(col int) cellMap { return cellMap{kind: cmLeft, line: col} }

// crossDown maps (row, j) → (row+1, j), consuming w[row].
func crossDown(row int) cellMap { return cellMap{kind: cmDown, line: row} }

// apply returns the cell c reaches, or false when c does not lie on the
// crossed line.
func (cm cellMap) apply(c [2]int) ([2]int, bool) {
	switch cm.kind {
	case cmLeft:
		if c[1] != cm.line {
			return c, false
		}
		return [2]int{c[0], cm.line - 1}, true
	case cmDown:
		if c[0] != cm.line {
			return c, false
		}
		return [2]int{cm.line + 1, c[1]}, true
	}
	return c, true
}

// A move carries a contiguous run of cells: n consecutive cells of its
// source boundary, from position fi, land on n consecutive cells of its
// target boundary, from position ti.
type run struct{ fi, ti, n int }

// Every move a combine makes is one run, whose ends follow from the
// region's geometry. With m1 = ⌊(a+b)/2⌋ and m2 = ⌊(c+d)/2⌋, the
// boundaries index their cells as
//
//	triIn(lo, hi):       (lo, j) at j−lo, then (i, hi) at (hi−lo)+(i−lo)
//	triOut(lo, hi):      (i, i) at i−lo
//	rectIn(a, b, c, d):  (a, j) at j−c, then (i, d) at (d−c)+(i−a)
//	rectOut(a, b, c, d): (i, c) at i−a, then (b, j) at (b−a)+(j−c)
//
// and each function below lists its combine's moves in the order the
// combine makes them. route_test.go checks every run against a walk of
// the two boundaries cell by cell.

// triRuns returns the moves of combineTri on T(lo, hi), with L, R and Q
// its left and right halves and the square between them:
//
//	0, 1: OUT(L), OUT(R) → OUT(T)          (placements)
//	2:    OUT(Q) → IN(L) across column mid+1 (Q's left column)
//	3:    OUT(Q) → IN(R) across row mid      (Q's bottom row)
//	4–6:  IN(T) → IN(L), IN(R), IN(Q)
func triRuns(lo, hi int) [7]run {
	mid := (lo + hi) / 2
	return [7]run{
		{0, 0, mid - lo + 1},
		{0, mid + 1 - lo, hi - mid},
		{0, mid - lo, mid - lo + 1},
		{mid - lo, 0, hi - mid},
		{0, 0, mid - lo + 1},
		{(hi - lo) + (mid + 1 - lo), hi - mid - 1, hi - mid},
		{mid + 1 - lo, 0, hi - lo},
	}
}

// rowRuns returns the moves of combineRectRow on the one-row rectangle
// Q over columns c..d, with W and E its halves:
//
//	0:    OUT(W) → OUT(Q)
//	1:    OUT(E) → IN(W) across column m2+1
//	2:    OUT(E) → OUT(Q)                   (identity)
//	3, 4: IN(Q) → IN(W), IN(E)
func rowRuns(c, d int) [5]run {
	m2 := (c + d) / 2
	return [5]run{
		{0, 0, m2 - c + 1},
		{0, m2 - c, 1},
		{0, m2 + 1 - c, d - m2},
		{0, 0, m2 - c + 1},
		{m2 + 1 - c, 0, d - m2},
	}
}

// colRuns returns the moves of combineRectCol on the one-column
// rectangle Q over rows a..b, with N and S its halves:
//
//	0:    OUT(S) → OUT(Q)
//	1:    OUT(N) → IN(S) across row m1
//	2:    OUT(N) → OUT(Q)                   (identity)
//	3, 4: IN(Q) → IN(N), IN(S)
func colRuns(a, b int) [5]run {
	m1 := (a + b) / 2
	return [5]run{
		{0, m1 + 1 - a, b - m1},
		{m1 - a, 0, 1},
		{0, 0, m1 - a + 1},
		{0, 0, m1 - a + 1},
		{m1 + 1 - a, 0, b - m1},
	}
}

// quadRuns returns the moves of combineRectQuad on the rectangle Q =
// rows a..b × columns c..d, with NW, NE, SW and SE its quadrants:
//
//	0: OUT(SW) → OUT(Q)
//	1: OUT(NW) → IN(SW) across row m1      (NW's bottom row)
//	2: OUT(NW) → OUT(Q)                    (identity, NW's left column)
//	3: OUT(SE) → IN(SW) across column m2+1 (SE's left column)
//	4: OUT(SE) → OUT(Q)                    (identity, SE's bottom row)
//	5: OUT(NE) → IN(NW) across column m2+1
//	6: OUT(NE) → IN(SE) across row m1
//	7–9: IN(Q) → IN(NW), IN(NE), IN(SE)
func quadRuns(a, b, c, d int) [10]run {
	m1, m2 := (a+b)/2, (c+d)/2
	return [10]run{
		{0, m1 + 1 - a, (b - m1 - 1) + (m2 - c) + 1},
		{m1 - a, 0, m2 - c + 1},
		{0, 0, m1 - a + 1},
		{0, m2 - c, b - m1},
		{b - m1 - 1, (b - a) + (m2 + 1 - c), d - m2},
		{0, m2 - c, m1 - a + 1},
		{m1 - a, 0, d - m2},
		{0, 0, m2 - c + 1},
		{m2 + 1 - c, 0, (m1 - a) + (d - m2 - 1) + 1},
		{(d - c) + (m1 + 1 - a), d - m2 - 1, b - m1},
	}
}

// place ORs into dst the column blocks of x at the run's source cells,
// moved to its target cells — dst |= x·inject(from, to, same, nil)
// without the product: one bit-range copy per row.
func (ctx *dcCtx) place(dst, x *boolmat.Matrix, r run) {
	k := ctx.k
	for i := 0; i < x.R; i++ {
		dst.OrBits(i, r.ti*k, x, i, r.fi*k, r.n*k)
	}
}

// pass ORs into dst, whose rows follow the move's source boundary, the
// rows of y, which follow its target — dst |= inject(from, to, same,
// nil)·y without the product: the run is one contiguous row copy.
func (ctx *dcCtx) pass(dst *boolmat.Matrix, r run, y *boolmat.Matrix) {
	dst.OrRows(r.fi*ctx.k, y, r.ti*ctx.k, r.n*ctx.k)
}

// route ORs into dst the rows of y across one consumed terminal — dst |=
// inject(from, to, cm, block)·y without the product, given the set pairs
// (A, B) of the terminal's rule block. Row (cell, A) of dst gathers row
// (cm(cell), B) of y for every pair.
func (ctx *dcCtx) route(dst *boolmat.Matrix, r run, rules []rulePair, y *boolmat.Matrix) {
	k := ctx.k
	for c := 0; c < r.n; c++ {
		for _, p := range rules {
			dst.OrRows((r.fi+c)*k+p.a, y, (r.ti+c)*k+p.b, 1)
		}
	}
}

// addIdentity sets p |= inject(from, to, same, nil) in place: the
// identity on nonterminals for every cell of the run.
func (ctx *dcCtx) addIdentity(p *boolmat.Matrix, r run) {
	k := ctx.k
	for x := 0; x < r.n*k; x++ {
		p.Set(r.fi*k+x, r.ti*k+x, true)
	}
}

package lincfl

import "partree/internal/boolmat"

// Boundary state moves between neighbouring regions without Boolean
// products. A region matrix is |IN|·K × |OUT|·K, row/column index
// cell·K + nonterminal; handing it to the next region is pure data
// movement on those K-row (or K-column) blocks:
//
//   - placement copies a matrix's column blocks to the positions their
//     cells hold on a larger exit boundary;
//   - routing gathers rows of a matrix into the rows of the cells that
//     reach them, either unchanged or across one consumed terminal, where
//     the K×K rule block picks which nonterminal rows are ORed together;
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
	cmSame cmKind = iota
	cmLeft        // (i, line) → (i, line-1), consuming w[line]
	cmDown        // (line, j) → (line+1, j), consuming w[line]
)

// same keeps the cell (regions whose boundaries share cells).
var same = cellMap{kind: cmSame}

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

// eachRun calls f(fi, ti, n) for every maximal run of n consecutive cells
// of from, starting at position fi, that cm carries onto n consecutive
// cells of to, starting at position ti. Cells cm or to reject are
// skipped. Every boundary is at most two straight segments, so a move
// yields a handful of runs.
func eachRun(from, to boundary, cm cellMap, f func(fi, ti, n int)) {
	fi0, ti0, n := 0, 0, 0
	for fi, fn := 0, from.size(); fi < fn; fi++ {
		ti, ok := 0, false
		if tc, hit := cm.apply(from.cell(fi)); hit {
			ti, ok = to.lookup(tc)
		}
		if ok && n > 0 && ti == ti0+n {
			n++
			continue
		}
		if n > 0 {
			f(fi0, ti0, n)
			n = 0
		}
		if ok {
			fi0, ti0, n = fi, ti, 1
		}
	}
	if n > 0 {
		f(fi0, ti0, n)
	}
}

// place returns x with its column blocks moved from the positions of
// from to those of to — x·inject(from, to, same, nil) without the
// product: each run of cells is one bit-range copy per row.
func (ctx *dcCtx) place(x *boolmat.Matrix, from, to boundary) *boolmat.Matrix {
	k := ctx.k
	out := boolmat.NewFromPool(x.R, to.size()*k)
	eachRun(from, to, same, func(fi, ti, n int) {
		for r := 0; r < x.R; r++ {
			out.OrBits(r, ti*k, x, r, fi*k, n*k)
		}
	})
	return out
}

// route ORs into dst, whose rows follow from, the rows of y, which follow
// to — dst |= inject(from, to, cm, block)·y without the product. Row
// (cell, A) of dst gathers row (cm(cell), B) of y for every B with
// block[A][B]; a nil block is the identity on nonterminals, so a run of
// cells is one contiguous row copy.
func (ctx *dcCtx) route(dst *boolmat.Matrix, from, to boundary, cm cellMap, block, y *boolmat.Matrix) {
	k := ctx.k
	eachRun(from, to, cm, func(fi, ti, n int) {
		if block == nil {
			dst.OrRows(fi*k, y, ti*k, n*k)
			return
		}
		for c := 0; c < n; c++ {
			for a := 0; a < k; a++ {
				for b := 0; b < k; b++ {
					if block.Get(a, b) {
						dst.OrRows((fi+c)*k+a, y, (ti+c)*k+b, 1)
					}
				}
			}
		}
	})
}

// addIdentity sets p |= inject(from, to, same, nil) in place: the
// identity on nonterminals for every cell the two boundaries share.
func (ctx *dcCtx) addIdentity(p *boolmat.Matrix, from, to boundary) {
	k := ctx.k
	eachRun(from, to, same, func(fi, ti, n int) {
		for x := 0; x < n*k; x++ {
			p.Set(fi*k+x, ti*k+x, true)
		}
	})
}

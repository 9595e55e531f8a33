package lincfl

import (
	"partree/internal/grammar"
	"partree/internal/pram"
)

// DeriveDC extracts a derivation of w using the same separator
// decomposition as RecognizeDC — Theorem 8.1's parenthetical "(and
// generate a parse tree)". It builds the same region table, keeps every
// level's boundary-reachability matrix, and walks the accepting path
// down the table, picking an explicit waypoint on each separator
// interface; the walk computes no product. It returns ok=false when
// w ∉ L(G).
func DeriveDC(m *pram.Machine, g *grammar.Linear, w []byte) ([]Step, bool) {
	if len(w) == 0 {
		return nil, false
	}
	defer m.Phase("lincfl.DeriveDC")()
	return newDCCtx(m, g, w).derive()
}

// derive builds the whole table and walks it from the start vertex to an
// accepting diagonal vertex.
func (ctx *dcCtx) derive() ([]Step, bool) {
	ctx.build()
	root := ctx.view(&ctx.regs[0])
	start, target, ok := ctx.accept(&root)
	if !ok {
		return nil, false
	}
	return vertsToSteps(ctx.w, ctx.path(ctx.regs[0], start, target)), true
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

package lincfl

import (
	"fmt"
	"math/rand"
	"testing"

	"partree/internal/boolmat"
	"partree/internal/grammar"
)

// inject builds the |from|·K × |to|·K matrix that routes state (cell, A)
// to (cm(cell), B) for every (A,B) set in block (nil block = the identity
// on nonterminals). Cells that cm or to reject route nowhere. The
// recognizer used to multiply by it; it is kept here as the oracle that
// place, route and addIdentity must match bit for bit.
func (ctx *dcCtx) inject(from, to boundary, cm cellMap, block *boolmat.Matrix) *boolmat.Matrix {
	out := boolmat.New(from.size()*ctx.k, to.size()*ctx.k)
	for fi, fn := 0, from.size(); fi < fn; fi++ {
		tc, ok := cm.apply(from.cell(fi))
		if !ok {
			continue
		}
		ti, ok := to.lookup(tc)
		if !ok {
			continue
		}
		for a := 0; a < ctx.k; a++ {
			for b := 0; b < ctx.k; b++ {
				if (block == nil && a == b) || (block != nil && block.Get(a, b)) {
					out.Set(fi*ctx.k+a, ti*ctx.k+b, true)
				}
			}
		}
	}
	return out
}

func randBits(rng *rand.Rand, r, c int) *boolmat.Matrix {
	m := boolmat.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Intn(3) == 0 {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

// randBoundary draws a boundary of the given kind inside a 20×20 grid;
// rectangles are single-row or single-column one time in three each.
func randBoundary(rng *rand.Rand, kind bkind) boundary {
	pick := func() (int, int) {
		x, y := rng.Intn(20), rng.Intn(20)
		if x > y {
			x, y = y, x
		}
		return x, y
	}
	a, b := pick()
	if kind == bTriIn || kind == bTriOut {
		return boundary{kind: kind, a: a, b: b}
	}
	c, d := pick()
	switch rng.Intn(3) {
	case 0:
		b = a
	case 1:
		d = c
	}
	return boundary{kind: kind, a: a, b: b, c: c, d: d}
}

// randMove draws a cell map that hits at least one cell of from, when
// it is not the identity.
func randMove(rng *rand.Rand, from boundary) cellMap {
	c := from.cell(rng.Intn(from.size()))
	switch rng.Intn(3) {
	case 0:
		return crossLeft(c[1])
	case 1:
		return crossDown(c[0])
	}
	return same
}

// TestRoutingMatchesInjectProducts checks placement, routing and the
// in-place identity bit for bit against the products by inject they
// replace: every pair of the four boundary kinds, both crossings and
// the identity move, nil and random K×K blocks for K = 1..5, and
// single-row and single-column rectangles.
func TestRoutingMatchesInjectProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(1511))
	kinds := []bkind{bTriIn, bTriOut, bRectIn, bRectOut}
	var moved [3]int // set bits of inject per move kind
	for k := 1; k <= 5; k++ {
		ctx := &dcCtx{k: k}
		for _, fk := range kinds {
			for _, tk := range kinds {
				for trial := 0; trial < 40; trial++ {
					from, to := randBoundary(rng, fk), randBoundary(rng, tk)
					if trial%4 == 0 {
						// Same region: the pairs the combines move within.
						to = from
						to.kind = tk
						if (fk < bRectIn) != (tk < bRectIn) {
							to = randBoundary(rng, tk)
						}
					}
					cm := randMove(rng, from)
					var block *boolmat.Matrix
					if trial%2 == 1 {
						block = randBits(rng, k, k)
					}
					where := fmt.Sprintf("K=%d from=%+v to=%+v move=%+v block=%v", k, from, to, cm, block != nil)
					inj := ctx.inject(from, to, cm, block)
					moved[cm.kind] += inj.Count()

					y := randBits(rng, to.size()*k, 1+rng.Intn(150))
					got := randBits(rng, from.size()*k, y.C)
					want := boolmat.Mul(inj, y).Or(got.Clone())
					ctx.route(got, from, to, cm, block, y)
					if !got.Equal(want) {
						t.Fatalf("route %s:\ngot\n%vwant\n%v", where, got, want)
					}

					if cm != same || block != nil {
						continue
					}
					x := randBits(rng, 1+rng.Intn(70), from.size()*k)
					if got, want := ctx.place(x, from, to), boolmat.Mul(x, inj); !got.Equal(want) {
						t.Fatalf("place %s:\ngot\n%vwant\n%v", where, got, want)
					}
					p := randBits(rng, from.size()*k, to.size()*k)
					want = inj.Clone().Or(p)
					ctx.addIdentity(p, from, to)
					if !p.Equal(want) {
						t.Fatalf("addIdentity %s:\ngot\n%vwant\n%v", where, p, want)
					}
				}
			}
		}
	}
	for kind, n := range moved {
		if n == 0 {
			t.Fatalf("no trial of move kind %d moved any state; the generator is vacuous", kind)
		}
	}
}

// TestRegionMatricesMatchBruteForce checks every region matrix of the
// table against a search of the induced graph restricted to that region,
// for random grammars with up to 5 nonterminals.
func TestRegionMatricesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1523))
	m := mach()
	regions := 0
	for trial := 0; trial < 30; trial++ {
		g := grammar.Random(rng, 1+rng.Intn(5), []byte("ab"), 1+rng.Intn(3))
		w := make([]byte, 1+rng.Intn(13))
		for i := range w {
			w[i] = "ab"[rng.Intn(2)]
		}
		ctx := newDCCtx(m, g, w)
		ctx.build()
		for i := range ctx.regs {
			r := &ctx.regs[i]
			in, out := r.bounds()
			want := regionReach(g, w, in, out, r.holds)
			if got := ctx.view(r); !got.Equal(want) {
				t.Fatalf("grammar %v word %q region %v:\ngot\n%vwant\n%v", g, w, []int32{r.a, r.b, r.c, r.d}, &got, want)
			}
			regions++
		}
	}
	if regions == 0 {
		t.Fatal("no region checked; the generator is vacuous")
	}
}

// regionReach is the IN×OUT reachability of one region by depth-first
// search from every entry vertex over the induced-graph edges that stay
// inside the region.
func regionReach(g *grammar.Linear, w []byte, in, out boundary, inside func([2]int) bool) *boolmat.Matrix {
	k := g.NumNT
	res := boolmat.New(in.size()*k, out.size()*k)
	for si := 0; si < in.size(); si++ {
		for a := 0; a < k; a++ {
			seen := map[vertex]bool{}
			stack := []vertex{{cell: in.cell(si), nt: a}}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[v] {
					continue
				}
				seen[v] = true
				if oi, ok := out.lookup(v.cell); ok {
					res.Set(si*k+a, oi*k+v.nt, true)
				}
				i, j := v.cell[0], v.cell[1]
				for _, r := range g.Left {
					if r.A == v.nt && r.T == w[i] && i < j && inside([2]int{i + 1, j}) {
						stack = append(stack, vertex{cell: [2]int{i + 1, j}, nt: r.B})
					}
				}
				for _, r := range g.Right {
					if r.A == v.nt && r.T == w[j] && i < j && inside([2]int{i, j - 1}) {
						stack = append(stack, vertex{cell: [2]int{i, j - 1}, nt: r.B})
					}
				}
			}
		}
	}
	return res
}

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

// pairsOf lists the set pairs (A, B) of a K×K rule block.
func pairsOf(block *boolmat.Matrix) []rulePair {
	var ps []rulePair
	for a := 0; a < block.R; a++ {
		for b := 0; b < block.C; b++ {
			if block.Get(a, b) {
				ps = append(ps, rulePair{a: a, b: b})
			}
		}
	}
	return ps
}

// same keeps the cell.
var same = cellMap{kind: cmSame}

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

// eachRun calls f(fi, ti, n) for every maximal run of n consecutive cells
// of from, starting at position fi, that cm carries onto n consecutive
// cells of to, starting at position ti. Cells cm or to reject are
// skipped. The combines used to find their moves' runs with this cell
// walk; it is kept as the oracle their closed-form runs must match.
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

// TestRoutingMatchesInjectProducts checks placement, passing, routing
// and the in-place identity, fed the walk's runs, bit for bit against the
// products by inject they replace: every pair of the four boundary
// kinds, both crossings and the identity move, nil and random K×K blocks
// for K = 1..5, and single-row and single-column rectangles.
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
					eachRun(from, to, cm, func(fi, ti, n int) {
						if block == nil {
							ctx.pass(got, run{fi, ti, n}, y)
						} else {
							ctx.route(got, run{fi, ti, n}, pairsOf(block), y)
						}
					})
					if !got.Equal(want) {
						t.Fatalf("route %s:\ngot\n%vwant\n%v", where, got, want)
					}

					if cm != same || block != nil {
						continue
					}
					x := randBits(rng, 1+rng.Intn(70), from.size()*k)
					placed := boolmat.New(x.R, to.size()*k)
					eachRun(from, to, same, func(fi, ti, n int) { ctx.place(placed, x, run{fi, ti, n}) })
					if got, want := placed, boolmat.Mul(x, inj); !got.Equal(want) {
						t.Fatalf("place %s:\ngot\n%vwant\n%v", where, got, want)
					}
					p := randBits(rng, from.size()*k, to.size()*k)
					want = inj.Clone().Or(p)
					eachRun(from, to, same, func(fi, ti, n int) { ctx.addIdentity(p, run{fi, ti, n}) })
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

// move is one boundary move of a combine: from → to across cm.
type move struct {
	from, to boundary
	cm       cellMap
}

// regionMoves returns the moves combine makes on region r, in the order
// of triRuns, rowRuns, colRuns or quadRuns, and the closed-form runs
// the combine uses for them.
func regionMoves(r region) ([]move, []run) {
	a, b, c, d := int(r.a), int(r.b), int(r.c), int(r.d)
	m1, m2 := (a+b)/2, (c+d)/2
	switch {
	case r.tri:
		lo, hi, mid := a, b, m1
		inT, outT := triIn(lo, hi), triOut(lo, hi)
		inL, inR := triIn(lo, mid), triIn(mid+1, hi)
		inQ, outQ := rectIn(lo, mid, mid+1, hi), rectOut(lo, mid, mid+1, hi)
		rs := triRuns(lo, hi)
		return []move{
			{triOut(lo, mid), outT, same},
			{triOut(mid+1, hi), outT, same},
			{outQ, inL, crossLeft(mid + 1)},
			{outQ, inR, crossDown(mid)},
			{inT, inL, same},
			{inT, inR, same},
			{inT, inQ, same},
		}, rs[:]
	case a == b:
		inQ, outQ := rectIn(a, b, c, d), rectOut(a, b, c, d)
		rs := rowRuns(c, d)
		return []move{
			{rectOut(a, b, c, m2), outQ, same},
			{rectOut(a, b, m2+1, d), rectIn(a, b, c, m2), crossLeft(m2 + 1)},
			{rectOut(a, b, m2+1, d), outQ, same},
			{inQ, rectIn(a, b, c, m2), same},
			{inQ, rectIn(a, b, m2+1, d), same},
		}, rs[:]
	case c == d:
		inQ, outQ := rectIn(a, b, c, d), rectOut(a, b, c, d)
		rs := colRuns(a, b)
		return []move{
			{rectOut(m1+1, b, c, d), outQ, same},
			{rectOut(a, m1, c, d), rectIn(m1+1, b, c, d), crossDown(m1)},
			{rectOut(a, m1, c, d), outQ, same},
			{inQ, rectIn(a, m1, c, d), same},
			{inQ, rectIn(m1+1, b, c, d), same},
		}, rs[:]
	}
	inQ, outQ := rectIn(a, b, c, d), rectOut(a, b, c, d)
	inNW, outNW := rectIn(a, m1, c, m2), rectOut(a, m1, c, m2)
	inNE, outNE := rectIn(a, m1, m2+1, d), rectOut(a, m1, m2+1, d)
	inSW, outSW := rectIn(m1+1, b, c, m2), rectOut(m1+1, b, c, m2)
	inSE, outSE := rectIn(m1+1, b, m2+1, d), rectOut(m1+1, b, m2+1, d)
	rs := quadRuns(a, b, c, d)
	return []move{
		{outSW, outQ, same},
		{outNW, inSW, crossDown(m1)},
		{outNW, outQ, same},
		{outSE, inSW, crossLeft(m2 + 1)},
		{outSE, outQ, same},
		{outNE, inNW, crossLeft(m2 + 1)},
		{outNE, inSE, crossDown(m1)},
		{inQ, inNW, same},
		{inQ, inNE, same},
		{inQ, inSE, same},
	}, rs[:]
}

// checkRuns fails unless the walk finds, for every move of r, exactly
// the one run the combine uses.
func checkRuns(t *testing.T, r region) {
	t.Helper()
	moves, runs := regionMoves(r)
	for i, mv := range moves {
		var walked []run
		eachRun(mv.from, mv.to, mv.cm, func(fi, ti, n int) { walked = append(walked, run{fi, ti, n}) })
		if len(walked) != 1 || walked[0] != runs[i] {
			t.Fatalf("region %v (tri %v) move %d %+v: closed form %+v, walk %+v",
				[]int32{r.a, r.b, r.c, r.d}, r.tri, i, mv, runs[i], walked)
		}
	}
}

// TestCombineRunsMatchWalk checks every combine's closed-form runs
// against the cell walk on every triangle and rectangle that fits a
// 12×12 grid: the four boundary kinds, all three moves, and crossings
// whose line misses part of the source boundary.
func TestCombineRunsMatchWalk(t *testing.T) {
	const g = 12
	shapes := 0
	for a := 0; a < g; a++ {
		for b := a; b < g; b++ {
			if a < b {
				checkRuns(t, triRegion(int32(a), int32(b)))
				shapes++
			}
			for c := 0; c < g; c++ {
				for d := c; d < g; d++ {
					if r := rectRegion(int32(a), int32(b), int32(c), int32(d)); !r.cell() {
						checkRuns(t, r)
						shapes++
					}
				}
			}
		}
	}
	t.Logf("%d shapes", shapes)
}

// FuzzCombineRuns is TestCombineRunsMatchWalk on arbitrary shapes of up
// to 256 cells a side. Fuzz with
// `go test -fuzz=FuzzCombineRuns ./internal/lincfl`.
func FuzzCombineRuns(f *testing.F) {
	f.Add(true, uint8(0), uint8(1), uint8(0), uint8(0))
	f.Add(false, uint8(3), uint8(3), uint8(5), uint8(9))
	f.Add(false, uint8(2), uint8(7), uint8(8), uint8(8))
	f.Add(false, uint8(0), uint8(128), uint8(129), uint8(255))
	f.Fuzz(func(t *testing.T, tri bool, a, b, c, d uint8) {
		a, b = min(a, b), max(a, b)
		c, d = min(c, d), max(c, d)
		r := rectRegion(int32(a), int32(b), int32(c), int32(d))
		if tri {
			r = triRegion(int32(a), int32(b))
		}
		if r.cell() {
			return
		}
		checkRuns(t, r)
	})
}

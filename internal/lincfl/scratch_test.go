package lincfl

import (
	"math/rand"
	"slices"
	"testing"

	"partree/internal/grammar"
)

// TestCombineScratchExact replays build one combine at a time on random
// grammars and words of 1–40 letters. Every combine must draw exactly
// the scratch newDCCtx reserved for it, at its peak, and the reserved
// ranges of one level must lie inside the scratch without overlapping.
// The replayed table must still decide the word as the sequential
// recognizer does.
func TestCombineScratchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2617))
	m := mach()
	combines := 0
	for trial := 0; trial < 60; trial++ {
		g := grammar.Random(rng, 1+rng.Intn(5), []byte("ab"), 1+rng.Intn(3))
		w := make([]byte, 1+rng.Intn(40))
		for i := range w {
			w[i] = "ab"[rng.Intn(2)]
		}
		ctx := newDCCtx(m, g, w)
		for d := len(ctx.lv) - 2; d >= 0; d-- {
			regs := ctx.regs[ctx.lv[d]:ctx.lv[d+1]]
			spans := make([][2]int, 0, len(regs))
			for i := range regs {
				r := &regs[i]
				sc := ctx.scratchOf(r)
				spans = append(spans, [2]int{r.soff, r.soff + len(sc.buf)})
				ctx.combine(r, &sc)
				if sc.peak != len(sc.buf) {
					t.Fatalf("%q level %d region %v (tri %v): combine drew %d scratch words, %d reserved",
						w, d, []int32{r.a, r.b, r.c, r.d}, r.tri, sc.peak, len(sc.buf))
				}
				combines++
			}
			slices.SortFunc(spans, func(x, y [2]int) int { return x[0] - y[0] })
			for i, s := range spans {
				if i > 0 && s[0] < spans[i-1][1] || s[1] > len(ctx.scratch) {
					t.Fatalf("%q level %d: scratch %v overlaps its neighbour or leaves the %d-word scratch",
						w, d, s, len(ctx.scratch))
				}
			}
		}
		root := ctx.view(&ctx.regs[0])
		if _, _, ok := ctx.accept(&root); ok != Sequential(g, w) {
			t.Fatalf("grammar %v word %q: replayed table says %v", g, w, ok)
		}
	}
	if combines == 0 {
		t.Fatal("no combine replayed; the generator is vacuous")
	}
}

package lincfl

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"partree/internal/grammar"
	"partree/internal/pram"
)

func mach() *pram.Machine { return pram.New(pram.WithWorkers(4), pram.WithGrain(8)) }

func TestSequentialPalindrome(t *testing.T) {
	g := grammar.Palindrome()
	accept := []string{"c", "aca", "bcb", "abcba", "ababcbaba", "bbacabb"}
	reject := []string{"", "a", "ab", "abc", "abcab", "acb", "cc", "aacaa_"}
	for _, s := range accept {
		if !Sequential(g, []byte(s)) {
			t.Errorf("palindrome should accept %q", s)
		}
	}
	for _, s := range reject {
		if Sequential(g, []byte(s)) {
			t.Errorf("palindrome should reject %q", s)
		}
	}
}

func TestSequentialEqualEnds(t *testing.T) {
	g := grammar.EqualEnds()
	for _, s := range []string{"acb", "aaccbb", "acccb", "aacbb"} {
		if !Sequential(g, []byte(s)) {
			t.Errorf("should accept %q", s)
		}
	}
	for _, s := range []string{"ab", "acbb", "aacb", "cab", "", "c"} {
		if Sequential(g, []byte(s)) {
			t.Errorf("should reject %q", s)
		}
	}
}

func TestDeriveProducesValidDerivation(t *testing.T) {
	g := grammar.Palindrome()
	w := []byte("abcba")
	steps, ok := Derive(g, w)
	if !ok {
		t.Fatal("derivation should exist")
	}
	// In the normalized grammar every step consumes exactly one terminal.
	if len(steps) != len(w) {
		t.Fatalf("derivation length %d, want %d", len(steps), len(w))
	}
	if !steps[len(steps)-1].Close {
		t.Error("last step must be a terminal rule")
	}
	text := FormatDerivation(g, w, steps)
	if !strings.Contains(text, "abcba") || !strings.HasPrefix(text, "S") {
		t.Errorf("FormatDerivation:\n%s", text)
	}
	if _, ok := Derive(g, []byte("ab")); ok {
		t.Error("derivation of non-member must fail")
	}
}

func TestSampleIsInLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	for _, g := range []*grammar.Linear{grammar.Palindrome(), grammar.EqualEnds()} {
		for trial := 0; trial < 30; trial++ {
			w, ok := g.Sample(rng, 50)
			if !ok {
				continue
			}
			if !Sequential(g, w) {
				t.Fatalf("sampled word %q not recognized", w)
			}
		}
	}
}

func TestDCMatchesSequentialOnStock(t *testing.T) {
	m := mach()
	for _, g := range []*grammar.Linear{grammar.Palindrome(), grammar.EqualEnds()} {
		rng := rand.New(rand.NewSource(227))
		// Members of assorted lengths.
		for trial := 0; trial < 20; trial++ {
			w, ok := g.Sample(rng, 40)
			if !ok {
				continue
			}
			res := RecognizeDC(m, g, w)
			if !res.Accepted {
				t.Fatalf("DC rejected member %q", w)
			}
		}
		// Random strings, mostly non-members.
		for trial := 0; trial < 30; trial++ {
			n := 1 + rng.Intn(24)
			w := make([]byte, n)
			for i := range w {
				w[i] = "abc"[rng.Intn(3)]
			}
			want := Sequential(g, w)
			got := RecognizeDC(m, g, w).Accepted
			if want != got {
				t.Fatalf("%q: sequential %v, DC %v", w, want, got)
			}
		}
	}
}

func TestDCMatchesSequentialOnRandomGrammars(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	m := mach()
	for gi := 0; gi < 8; gi++ {
		g := grammar.Random(rng, 2+rng.Intn(4), []byte("ab"), 2)
		for trial := 0; trial < 25; trial++ {
			var w []byte
			if trial%2 == 0 {
				var ok bool
				w, ok = g.Sample(rng, 30)
				if !ok {
					continue
				}
			} else {
				n := 1 + rng.Intn(20)
				w = make([]byte, n)
				for i := range w {
					w[i] = "ab"[rng.Intn(2)]
				}
			}
			want := Sequential(g, w)
			got := RecognizeDC(m, g, w).Accepted
			if want != got {
				t.Fatalf("grammar %d, %q: sequential %v, DC %v", gi, w, want, got)
			}
		}
	}
}

func TestDCEdgeCases(t *testing.T) {
	g := grammar.Palindrome()
	m := mach()
	if RecognizeDC(m, g, nil).Accepted {
		t.Error("empty word must be rejected")
	}
	if !RecognizeDC(m, g, []byte("c")).Accepted {
		t.Error("single centre symbol must be accepted")
	}
	if RecognizeDC(m, g, []byte("a")).Accepted {
		t.Error("single non-centre symbol must be rejected")
	}
	// Length 2: exercises the smallest split.
	if RecognizeDC(m, g, []byte("ca")).Accepted {
		t.Error("\"ca\" must be rejected")
	}
	g2 := grammar.EqualEnds()
	// Smallest member of EqualEnds has length 3.
	if !RecognizeDC(m, g2, []byte("acb")).Accepted {
		t.Error("\"acb\" must be accepted")
	}
}

// Theorem 8.1 shape: the region table is O(log n) levels deep, and the
// dominant work is the top-level Boolean products: word operations grow
// far slower than the n³ of a naive path closure.
func TestDCDepthLogarithmic(t *testing.T) {
	g := grammar.Palindrome()
	m := mach()
	for _, n := range []int{15, 31, 63, 127} {
		w := make([]byte, n)
		for i := range w {
			w[i] = 'a'
		}
		w[n/2] = 'c'
		for i := 0; i < n/2; i++ {
			w[n-1-i] = w[i]
		}
		res := RecognizeDC(m, g, w)
		if !res.Accepted {
			t.Fatalf("n=%d: palindrome rejected", n)
		}
		// depth ≈ log₂(n) for the triangle plus log for the rectangles.
		limit := 0
		for v := 1; v < n; v <<= 1 {
			limit++
		}
		if res.Depth > 2*limit+4 {
			t.Errorf("n=%d: depth %d exceeds 2·log+4 = %d", n, res.Depth, 2*limit+4)
		}
	}
}

// TestDCStepBound checks Theorem 8.1's O(log² n) time on counted steps.
// With processors to spare, every product costs one step, and each level
// statement costs one step plus its longest combine: at most 12, a
// quadrant split's ten moves and its two dependent products. Over about
// 2·log₂ n levels that is well inside c·⌈log₂ n⌉²; the measured ratio
// peaks at 3.0 at n = 16, so c = 4.
func TestDCStepBound(t *testing.T) {
	const c = 4
	g := grammar.Palindrome()
	for e := 4; e <= 9; e++ {
		for _, n := range []int{1 << e, 1<<e + 1} {
			m := pram.New(pram.WithProcessors(1 << 20))
			if RecognizeDC(m, g, palindromeWord(n)).Accepted != (n%2 == 1) {
				t.Fatalf("n=%d: wrong verdict", n)
			}
			lg := int64(bits.Len(uint(n - 1))) // ⌈log₂ n⌉
			if steps := m.Counters().Steps; steps > c*lg*lg {
				t.Errorf("n=%d: %d counted steps, bound %d·⌈log₂ n⌉² = %d", n, steps, c, c*lg*lg)
			}
			m.Close()
		}
	}
}

// TestDCChargeScheduleFree: a level statement tallies its regions'
// charge per chunk, and the chunks follow the workers and the grain. The
// counted charge must not: on the n = 127 and n = 257 palindromes,
// RecognizeDC's and DeriveDC's counted steps, work and calls, products,
// word ops and depth are the same on every machine, and so is the
// derivation. A tally that lost one chunk's longest combine, or added
// one twice, would change with the chunk count.
func TestDCChargeScheduleFree(t *testing.T) {
	type charge struct {
		rec, der pram.Counters
		res      DCResult
		derProds int64
		derOps   int64
		steps    []Step
	}
	g := grammar.Palindrome()
	for _, tc := range []struct{ n, prods int }{{127, 8001}, {257, 32896}} {
		w := palindromeWord(tc.n)
		var first *charge
		var firstAt string
		for _, workers := range []int{1, 2, 4} {
			for _, grain := range []int{1, 3, 64, 0} { // 0: adaptive
				opts := []pram.Option{pram.WithWorkers(workers)}
				if grain > 0 {
					opts = append(opts, pram.WithGrain(grain))
				}
				m := pram.New(opts...)
				var c charge
				c.res = *RecognizeDC(m, g, w)
				c.rec = m.Counters()
				m.Reset()
				// DeriveDC is a phase around this context's derive, which
				// also shows its products.
				ctx := newDCCtx(m, g, w)
				var ok bool
				c.steps, ok = ctx.derive()
				c.der, c.derProds, c.derOps = m.Counters(), ctx.prods.Load(), ctx.ops.Load()
				m.Close()

				at := fmt.Sprintf("n=%d workers=%d grain=%d", tc.n, workers, grain)
				if !c.res.Accepted || !ok || c.res.Products != tc.prods {
					t.Fatalf("%s: accepted %v, derived %v, %d products (want %d)", at, c.res.Accepted, ok, c.res.Products, tc.prods)
				}
				if c.derProds != int64(c.res.Products) || c.derOps != c.res.WordOps {
					t.Fatalf("%s: DeriveDC made %d products over %d word ops, RecognizeDC %d over %d",
						at, c.derProds, c.derOps, c.res.Products, c.res.WordOps)
				}
				if first == nil {
					first, firstAt = &c, at
					continue
				}
				if c.rec != first.rec || c.der != first.der || c.res != first.res || !slices.Equal(c.steps, first.steps) {
					t.Fatalf("%s: recognize %+v %+v, derive %+v; %s: recognize %+v %+v, derive %+v",
						at, c.rec, c.res, c.der, firstAt, first.rec, first.res, first.der)
				}
			}
		}
	}
}

func TestFormatDerivationTermOnly(t *testing.T) {
	g := grammar.Palindrome()
	steps, ok := Derive(g, []byte("c"))
	if !ok || len(steps) != 1 || !steps[0].Close {
		t.Fatalf("steps = %v ok=%v", steps, ok)
	}
}

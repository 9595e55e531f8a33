package lincfl

import (
	"math/rand"
	"testing"

	"partree/internal/grammar"
)

// validateSteps replays a derivation against the grammar: every step must
// apply an existing rule, consume the outermost remaining symbol on its
// side, and the chain must end with a terminal rule covering the last
// position.
func validateSteps(t *testing.T, g *grammar.Linear, w []byte, steps []Step) {
	t.Helper()
	if len(steps) != len(w) {
		t.Fatalf("derivation has %d steps for %d symbols", len(steps), len(w))
	}
	i, j := 0, len(w)-1
	for x, s := range steps {
		lastStep := x == len(steps)-1
		switch {
		case s.Close:
			if !lastStep || i != j || s.Pos != i {
				t.Fatalf("step %d: premature/misplaced close (i=%d j=%d pos=%d)", x, i, j, s.Pos)
			}
			ok := false
			for _, r := range g.Term {
				if r.A == s.NT && r.T == w[i] {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("step %d: no terminal rule %d → %c", x, s.NT, w[i])
			}
		case s.Left:
			if s.Pos != i {
				t.Fatalf("step %d: left consume at %d, expected %d", x, s.Pos, i)
			}
			ok := false
			for _, r := range g.Left {
				if r.A == s.NT && r.T == w[i] && r.B == steps[x+1].NT {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("step %d: no rule %d → %c %d", x, s.NT, w[i], steps[x+1].NT)
			}
			i++
		default:
			if s.Pos != j {
				t.Fatalf("step %d: right consume at %d, expected %d", x, s.Pos, j)
			}
			ok := false
			for _, r := range g.Right {
				if r.A == s.NT && r.T == w[j] && r.B == steps[x+1].NT {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("step %d: no rule %d → %d %c", x, s.NT, steps[x+1].NT, w[j])
			}
			j--
		}
	}
	if steps[0].NT != g.Start {
		t.Fatalf("derivation does not start from the start symbol")
	}
}

func TestDeriveDCStockGrammars(t *testing.T) {
	m := mach()
	rng := rand.New(rand.NewSource(383))
	for _, g := range []*grammar.Linear{grammar.Palindrome(), grammar.EqualEnds()} {
		for trial := 0; trial < 15; trial++ {
			w, ok := g.Sample(rng, 40)
			if !ok {
				continue
			}
			steps, ok := DeriveDC(m, g, w)
			if !ok {
				t.Fatalf("DeriveDC rejected member %q", w)
			}
			validateSteps(t, g, w, steps)
		}
		// Non-members must be rejected.
		if _, ok := DeriveDC(m, g, []byte("zzz")); ok {
			t.Error("DeriveDC accepted a non-member")
		}
	}
	if _, ok := DeriveDC(m, grammar.Palindrome(), nil); ok {
		t.Error("empty word must be rejected")
	}
}

func TestDeriveDCRandomGrammars(t *testing.T) {
	m := mach()
	rng := rand.New(rand.NewSource(389))
	for gi := 0; gi < 8; gi++ {
		g := grammar.Random(rng, 2+rng.Intn(4), []byte("ab"), 2)
		for trial := 0; trial < 10; trial++ {
			w, ok := g.Sample(rng, 25)
			if !ok {
				continue
			}
			steps, ok := DeriveDC(m, g, w)
			if !ok {
				t.Fatalf("grammar %d: DeriveDC rejected member %q", gi, w)
			}
			validateSteps(t, g, w, steps)
		}
	}
}

func TestDeriveDCMatchesSequentialVerdicts(t *testing.T) {
	m := mach()
	rng := rand.New(rand.NewSource(397))
	g := grammar.Palindrome()
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(30)
		w := make([]byte, n)
		for i := range w {
			w[i] = "abc"[rng.Intn(3)]
		}
		_, got := DeriveDC(m, g, w)
		if want := Sequential(g, w); got != want {
			t.Fatalf("%q: DeriveDC %v, sequential %v", w, got, want)
		}
	}
}

func TestDeriveDCLongPalindrome(t *testing.T) {
	m := mach()
	g := grammar.Palindrome()
	n := 101
	w := make([]byte, n)
	for i := 0; i < n/2; i++ {
		w[i] = "ab"[i%2]
		w[n-1-i] = w[i]
	}
	w[n/2] = 'c'
	steps, ok := DeriveDC(m, g, w)
	if !ok {
		t.Fatal("long palindrome rejected")
	}
	validateSteps(t, g, w, steps)
}

// TestDeriveDCAddsNoProduct: the derivation walk reads the table the
// recognizer builds and computes no product of its own, so DeriveDC
// performs exactly RecognizeDC's products on members and non-members.
func TestDeriveDCAddsNoProduct(t *testing.T) {
	m := mach()
	g := grammar.Palindrome()
	for _, w := range [][]byte{palindromeWord(127), palindromeWord(64), []byte("abcab"), []byte("c")} {
		ctx := newDCCtx(m, g, w)
		_, ok := ctx.derive()
		want := RecognizeDC(m, g, w)
		if ok != want.Accepted {
			t.Fatalf("%q: derive ok %v, RecognizeDC %v", w, ok, want.Accepted)
		}
		if got := int(ctx.prods.Load()); got != want.Products {
			t.Fatalf("%q: DeriveDC performed %d products, RecognizeDC %d", w, got, want.Products)
		}
	}
}

package lincfl

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"partree/internal/cyk"
	"partree/internal/grammar"
	"partree/internal/pram"
)

// FuzzLinCFL cross-checks three recognizers on arbitrary words: the
// paper's separator divide-and-conquer (RecognizeDC, Theorem 8.1), the
// quadratic sequential DP (Sequential), and the general-CFL CYK algorithm
// run on the linear grammar converted to Chomsky normal form — three
// independent implementations that must render identical verdicts — and
// replays DeriveDC's derivation against the grammar. Besides the two
// stock grammars it draws a random grammar with up to 5 nonterminals
// seeded from the input, so multi-rule blocks at larger K are exercised.
// Fuzz with `go test -fuzz=FuzzLinCFL ./internal/lincfl`.
func FuzzLinCFL(f *testing.F) {
	f.Add([]byte("c"))
	f.Add([]byte("acbca"))                  // not a palindrome, not equal-ends… checked below
	f.Add([]byte("abcba"))                  // palindrome
	f.Add([]byte("aba"))                    // equal ends
	f.Add([]byte(""))                       // empty word
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaac")) // long one-sided word
	f.Add([]byte{0xff, 0x00, 'a'})          // bytes outside the alphabet
	f.Add([]byte("abcabcbbacbabcacbca"))    // longer word, another random grammar

	type oracle struct {
		name string
		g    *grammar.Linear
		cnf  *cyk.CNF
	}
	pal := grammar.Palindrome()
	ee := grammar.EqualEnds()
	oracles := []oracle{
		{"palindrome", pal, cyk.FromLinear(pal)},
		{"equal-ends", ee, cyk.FromLinear(ee)},
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 48 {
			return
		}
		// Fold arbitrary bytes onto the grammars' alphabet so the fuzzer
		// explores membership structure rather than trivial rejections —
		// but keep a few raw bytes to exercise the reject path too.
		w := make([]byte, len(data))
		for i, b := range data {
			if b < 0xf0 {
				w[i] = "abc"[int(b)%3]
			} else {
				w[i] = b
			}
		}
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		g := grammar.Random(rng, 1+rng.Intn(5), []byte("abc"), 1+rng.Intn(3))
		m := pram.New(pram.WithWorkers(2), pram.WithGrain(8))
		for _, o := range append(oracles, oracle{"random", g, cyk.FromLinear(g)}) {
			want := Sequential(o.g, w)
			if got := cyk.Recognize(o.cnf, w); got != want {
				t.Fatalf("%s: CYK says %v, sequential DP says %v on %q", o.name, got, want, w)
			}
			if got := RecognizeDC(m, o.g, w).Accepted; got != want {
				t.Fatalf("%s: divide-and-conquer says %v, sequential DP says %v on %q",
					o.name, got, want, w)
			}
			steps, ok := DeriveDC(m, o.g, w)
			if ok != want {
				t.Fatalf("%s: DeriveDC found a derivation: %v, sequential DP says %v on %q",
					o.name, ok, want, w)
			}
			if ok {
				validateSteps(t, o.g, w, steps)
			}
		}
	})
}

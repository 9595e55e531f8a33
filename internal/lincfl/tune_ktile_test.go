package lincfl

import (
	"math/rand"
	"testing"

	"partree/internal/grammar"
	"partree/internal/tune"
)

// TestDCKTileMatchesSequential re-runs the separator recursion with the
// blocked multiply's k-tile budget at its validity floor, the one tuned
// value lincfl's products still read: the larger products then walk A's
// columns in several k-tiles instead of one. Verdicts, product counts,
// word-op tallies and depth must match the default tiling, and the
// verdicts the sequential oracle.
func TestDCKTileMatchesSequential(t *testing.T) {
	m := mach()
	g := grammar.Palindrome()
	rng := rand.New(rand.NewSource(331))

	words := make([][]byte, 0, 24)
	for trial := 0; trial < 12; trial++ {
		if w, ok := g.Sample(rng, 200); ok {
			words = append(words, w)
		}
		n := 1 + rng.Intn(24)
		w := make([]byte, n)
		for i := range w {
			w[i] = "abc"[rng.Intn(3)]
		}
		words = append(words, w)
	}

	tune.SetActive(nil)
	want := make([]DCResult, len(words))
	for i, w := range words {
		want[i] = *RecognizeDC(m, g, w)
		if want[i].Accepted != Sequential(g, w) {
			t.Fatalf("%q: RecognizeDC %v, sequential %v", w, want[i].Accepted, !want[i].Accepted)
		}
	}

	prof := tune.Defaults()
	prof.Tuned.BoolmatKTileBytes = 1 << 14
	tune.SetActive(prof)
	defer tune.SetActive(nil)
	for i, w := range words {
		if got := *RecognizeDC(m, g, w); got != want[i] {
			t.Fatalf("%q: %+v under the smallest k-tile, %+v by default", w, got, want[i])
		}
	}
}

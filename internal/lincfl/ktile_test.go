package lincfl

import (
	"bytes"
	"testing"

	"partree/internal/boolmat"
	"partree/internal/grammar"
)

// TestDCKTileMatchesSequential runs the separator recursion on words long
// enough that the root triangle's product — IN(Q)→OUT(Q) times
// OUT(Q)→OUT(T), inner dimension (n−1)·K over n·K columns — walks A's
// columns in several k-tiles of the blocked multiply. The grammar
// aⁿ⁻ʲ⁻¹ c bʲ has one derivation: every a, then c and the b's. Its path
// runs down Q's right column and leaves Q at the bottom-right corner,
// the last index of OUT(Q), so it reaches the root only through the last
// k-tile. Verdicts must match the sequential oracle, and product counts,
// word-op tallies and depth, which depend only on n, must agree across
// words of one length.
func TestDCKTileMatchesSequential(t *testing.T) {
	g, err := grammar.Normalize([]grammar.RawRule{
		{A: "S", Pre: "a", B: "S"},
		{A: "S", Pre: "a", B: "T"},
		{A: "T", B: "T", Suf: "b"},
		{A: "T", Pre: "c"},
	}, "S")
	if err != nil {
		t.Fatal(err)
	}
	m := mach()
	k := g.NumNT
	n := 2
	for (n-1)*k <= boolmat.KTileRows(n*k) {
		n++
	}
	n += 8
	if kt := boolmat.KTileRows(n * k); (n-1)*k <= kt {
		t.Fatalf("n = %d: root product's inner dimension %d fits one %d-row k-tile", n, (n-1)*k, kt)
	}

	accept := append(bytes.Repeat([]byte("a"), n-4), "cbbb"...)
	late := append([]byte(nil), accept...)
	late[n-5], late[n-4] = 'c', 'a' // a c in the a-run: no derivation
	words := [][]byte{accept, late, bytes.Repeat([]byte("a"), n)}

	var first DCResult
	for i, w := range words {
		got := *RecognizeDC(m, g, w)
		if want := Sequential(g, w); got.Accepted != want || want != (i == 0) {
			t.Fatalf("word %d (n = %d): RecognizeDC %v, sequential %v", i, n, got.Accepted, want)
		}
		if i == 0 {
			first = got
			continue
		}
		got.Accepted = first.Accepted
		if got != first {
			t.Fatalf("word %d (n = %d): %+v, first word %+v", i, n, got, first)
		}
	}
}

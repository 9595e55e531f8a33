package lincfl

import (
	"testing"

	"partree/internal/grammar"
	"partree/internal/pram"
)

func palindromeWord(n int) []byte {
	w := make([]byte, n)
	for i := 0; i < n/2; i++ {
		w[i] = "ab"[i%2]
		w[n-1-i] = w[i]
	}
	w[n/2] = 'c'
	return w
}

// BenchmarkRecognizeDC measures the separator divide-and-conquer on the
// palindrome grammar; run with -benchmem to see its allocations per
// call (EXPERIMENTS.md E11 records the figure without the workspace
// arena).
func BenchmarkRecognizeDC(b *testing.B) {
	g := grammar.Palindrome()
	w := palindromeWord(127)
	m := pram.New(pram.WithGrain(64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RecognizeDC(m, g, w)
	}
}

package lincfl

import (
	"fmt"
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
// palindrome grammar at n = 127 and at n = 257, the size the lib-par
// benchmark workload recognizes; run with -benchmem to see its
// allocations per call (EXPERIMENTS.md E11 records the figure without
// the workspace arena). On Linux it also reports cpu-ms/op, the
// process's CPU time per call: run it with -cpu 1,2 to see what the
// second worker costs in CPU next to what it saves in wall time.
func BenchmarkRecognizeDC(b *testing.B) {
	g := grammar.Palindrome()
	m := pram.New(pram.WithGrain(64))
	defer m.Close()
	for _, n := range []int{127, 257} {
		w := palindromeWord(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			stop := meterCPU(b)
			for i := 0; i < b.N; i++ {
				RecognizeDC(m, g, w)
			}
			stop()
		})
	}
}

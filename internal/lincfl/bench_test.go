package lincfl

import (
	"fmt"
	"testing"
	"time"

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

// BenchmarkDCLevels times RecognizeDC's parts one by one on the n = 257
// palindrome (K = 3), serially: newDCCtx, reported as ctx-us/call, and
// then each level's combines in build's order, deepest first, reported
// as L<d>-ns/region. Every iteration lays out a fresh table, as a call
// does, and combines its levels without a PRAM statement, so the
// figures are what one worker spends per region at each depth.
func BenchmarkDCLevels(b *testing.B) {
	g := grammar.Palindrome()
	m := pram.New(pram.WithWorkers(1))
	defer m.Close()
	w := palindromeWord(257)
	b.Run("n=257", func(b *testing.B) {
		b.ReportAllocs()
		var ctxTime time.Duration
		var levels []time.Duration
		var ctx *dcCtx
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			ctx = newDCCtx(m, g, w)
			ctxTime += time.Since(t0)
			if levels == nil {
				levels = make([]time.Duration, len(ctx.lv)-1)
			}
			for d := len(ctx.lv) - 2; d >= 0; d-- {
				t0 = time.Now()
				combineLevel(ctx, d)
				levels[d] += time.Since(t0)
			}
		}
		b.ReportMetric(float64(ctxTime)/float64(time.Microsecond)/float64(b.N), "ctx-us/call")
		for d, t := range levels {
			regions := ctx.lv[d+1] - ctx.lv[d]
			b.ReportMetric(float64(t.Nanoseconds())/float64(b.N*regions), fmt.Sprintf("L%d-ns/region", d))
		}
	})
}

// combineLevel combines level d of ctx's table serially, as one chunk of
// build's level statement does.
func combineLevel(ctx *dcCtx, d int) {
	regs := ctx.regs[ctx.lv[d]:ctx.lv[d+1]]
	for i := range regs {
		sc := ctx.scratchOf(&regs[i])
		ctx.combine(&regs[i], &sc)
	}
}

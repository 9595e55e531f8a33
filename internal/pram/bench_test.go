package pram

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
)

// BenchmarkForSpeedup measures the wall-clock throughput of one parallel
// statement as the worker count grows — the practical constant behind the
// simulated PRAM. The body does enough arithmetic per index to be
// compute-bound. Alongside the honest ns/op it reports the model-level
// counted-step speedup (steps at p=1 over steps at p=w, deterministic and
// host-independent) plus the scheduler's barrier overhead, so runs on
// core-starved CI boxes still record the scaling trend.
func BenchmarkForSpeedup(b *testing.B) {
	const n = 1 << 18
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%97) + 0.5
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			m := New(WithWorkers(w), WithProcessors(w), WithGrain(1024))
			out := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.For(n, func(j int) {
					out[j] = math.Sqrt(xs[j]) * math.Log1p(xs[j])
				})
			}
			b.StopTimer()
			st := m.Stats()
			ops := float64(st.Calls)
			b.ReportMetric(float64(n)*ops/float64(st.Steps), "pram-speedup")
			b.ReportMetric(float64(st.BarrierWait.Nanoseconds())/ops, "barrier-ns/op")
		})
	}
}

// BenchmarkForOverhead measures the fixed cost of issuing tiny parallel
// statements (the per-statement barrier the polylog algorithms pay).
func BenchmarkForOverhead(b *testing.B) {
	m := New(WithGrain(64))
	var sink atomic.Int64
	for i := 0; i < b.N; i++ {
		m.For(8, func(j int) { sink.Add(1) })
	}
}

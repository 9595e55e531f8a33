package pram

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkDispatch measures the cost of one small parallel statement
// on the resident pool — the number E14 gates. Run with:
//
//	go test -bench Dispatch -run xxx ./internal/pram
func BenchmarkDispatch(b *testing.B) {
	for _, shape := range []struct{ w, n, g int }{
		{2, 64, 1}, // the E14 shape: service-style small statement, one index per chunk
		{4, 64, 8},
		{4, 256, 8},
	} {
		buf := make([]int64, shape.n)
		body := func(i int) { buf[i]++ }
		name := fmt.Sprintf("w%d/n%d/g%d", shape.w, shape.n, shape.g)
		b.Run(name, func(b *testing.B) {
			m := New(WithWorkers(shape.w), WithGrain(shape.g), WithIdleTimeout(time.Minute))
			defer m.Close()
			m.For(shape.n, body)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.For(shape.n, body)
			}
		})
	}
}

package hufpar

import (
	"math/rand"
	"testing"

	"partree/internal/matrix"
	"partree/internal/monge"
	"partree/internal/pram"
	"partree/internal/semiring"
	"partree/internal/workload"
)

// Lemma 5.1 (Garey's Quadrangle Lemma): every height-bounded matrix A_h is
// concave. We verify it directly on random monotone frequency vectors, for
// every level, together with the concavity of S, M′ and the squared path
// matrices — the properties the whole Section 5 pipeline rests on.
func TestLemma51AllMatricesConcave(t *testing.T) {
	rng := rand.New(rand.NewSource(281))
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(64))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(20)
		w := workload.SortedAscending(workload.Random(rng, n))
		pre := prefixSums(w)

		s := matrix.NewFull(n+1, n+1, semiring.Inf)
		for i := 0; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				s.Set(i, j, pre[j]-pre[i])
			}
		}
		if v := monge.Violations(s); v != nil {
			t.Fatalf("trial %d: S not concave: %v", trial, v)
		}

		a := matrix.NewFull(n+1, n+1, semiring.Inf)
		for i := 0; i < n; i++ {
			a.Set(i, i+1, 0)
		}
		var cnt matrix.OpCount
		for h := 0; h < 2*len(w); h++ {
			if v := monge.Violations(a); v != nil {
				t.Fatalf("trial %d: A_%d not concave: %v", trial, h, v)
			}
			prod, _ := monge.MulPar(m, a, a, &cnt)
			next := matrix.NewFull(n+1, n+1, semiring.Inf)
			for i := 0; i <= n; i++ {
				for j := i + 1; j <= n; j++ {
					if j == i+1 {
						next.Set(i, j, 0)
					} else {
						next.Set(i, j, prod.At(i, j)+s.At(i, j))
					}
				}
			}
			a = next
			if h > 6 {
				break // levels stabilize quickly at these sizes
			}
		}

		mp := matrix.NewFull(n+1, n+1, semiring.Inf)
		mp.Set(0, 0, 0)
		mp.Set(0, 1, 0)
		for i := 1; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				mp.Set(i, j, a.At(i, j)+s.At(0, j))
			}
		}
		if v := monge.Violations(mp); v != nil {
			t.Fatalf("trial %d: M′ not concave: %v", trial, v)
		}
		cur := mp
		for sq := 0; sq < 3; sq++ {
			cur, _ = monge.MulPar(m, cur, cur, &cnt)
			if v := monge.Violations(cur); v != nil {
				t.Fatalf("trial %d: (M′)^{2^%d} not concave: %v", trial, sq+1, v)
			}
		}
	}
}

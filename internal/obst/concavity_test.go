package obst

import (
	"math/rand"
	"testing"

	"partree/internal/matrix"
	"partree/internal/monge"
	"partree/internal/semiring"
)

// The OBST analogue of Lemma 5.1: the height-bounded matrices E_h of the
// Section 6 DP satisfy the quadrangle condition, as do the shifted
// operand matrices the products consume — the premise for using the
// concave engine on search trees.
func TestOBSTHeightMatricesConcave(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(15)
		in := randInstance(rng, n)
		w := in.weights()

		e := matrix.NewFull(n+1, n+1, semiring.Inf)
		for a := 0; a <= n; a++ {
			e.Set(a, a, 0)
		}
		var cnt matrix.OpCount
		for h := 0; h < 6; h++ {
			shifted := matrix.NewFull(n+1, n+1, semiring.Inf)
			for a := 0; a <= n; a++ {
				for k := 1; k <= n; k++ {
					shifted.Set(a, k, e.At(a, k-1))
				}
			}
			if v := monge.Violations(shifted); v != nil {
				t.Fatalf("trial %d level %d: shifted operand not concave: %v", trial, h, v)
			}
			prod, _ := matrix.MulBrute(shifted, e, &cnt)
			next := matrix.NewFull(n+1, n+1, semiring.Inf)
			for a := 0; a <= n; a++ {
				next.Set(a, a, 0)
				for b := a + 1; b <= n; b++ {
					if !semiring.IsInf(prod.At(a, b)) {
						next.Set(a, b, prod.At(a, b)+w(a, b))
					}
				}
			}
			e = next
			if v := monge.Violations(e); v != nil {
				t.Fatalf("trial %d: E_%d not concave: %v", trial, h+1, v)
			}
		}
	}
}

// Knuth's root monotonicity — the sequential ancestor of the concavity
// property: the optimal root index is non-decreasing along rows and
// columns of the DP table.
func TestKnuthRootMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(25)
		in := randInstance(rng, n)
		w := in.weights()
		// Unrestricted DP recording leftmost optimal roots.
		e := make([][]float64, n+1)
		root := make([][]int, n+1)
		for a := 0; a <= n; a++ {
			e[a] = make([]float64, n+1)
			root[a] = make([]int, n+1)
		}
		for span := 1; span <= n; span++ {
			for a := 0; a+span <= n; a++ {
				b := a + span
				best, arg := semiring.Inf, a+1
				for r := a + 1; r <= b; r++ {
					if c := e[a][r-1] + e[r][b]; c < best {
						best, arg = c, r
					}
				}
				e[a][b] = best + w(a, b)
				root[a][b] = arg
			}
		}
		for a := 0; a <= n; a++ {
			for b := a + 2; b <= n; b++ {
				if root[a][b-1] > root[a][b] {
					t.Fatalf("trial %d: root[%d][%d]=%d > root[%d][%d]=%d",
						trial, a, b-1, root[a][b-1], a, b, root[a][b])
				}
				if root[a+1][b] < root[a][b] {
					t.Fatalf("trial %d: root[%d][%d]=%d < root[%d][%d]=%d",
						trial, a+1, b, root[a+1][b], a, b, root[a][b])
				}
			}
		}
	}
}

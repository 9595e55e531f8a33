package monge

import (
	"math/rand"
	"testing"

	"partree/internal/matrix"
	"partree/internal/pram"
)

// FuzzConcaveMultiply differentially checks the concave (min,+) engines on
// fuzz-shaped random concave inputs: the Section 4.1 recursive product and
// the Section 4.2 bottom-up product must match the brute-force product
// value-for-value, so recycled workspace slabs can never leak state into a
// result unnoticed. Fuzz with `go test -fuzz=FuzzConcaveMultiply ./internal/monge`.
func FuzzConcaveMultiply(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(6), uint8(10), uint8(3))
	f.Add(int64(7), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0))
	f.Add(int64(42), uint8(17), uint8(2), uint8(31), uint8(50), uint8(7))
	f.Add(int64(-3), uint8(33), uint8(40), uint8(9), uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, seed int64, pb, qb, rb, span, maxDelta uint8) {
		p := 1 + int(pb)%48
		q := 1 + int(qb)%48
		r := 1 + int(rb)%48
		rng := rand.New(rand.NewSource(seed))
		a := Random(rng, p, q, int(span)+1, int(maxDelta))
		b := Random(rng, q, r, int(span)+1, int(maxDelta))

		if v := Violations(a); v != nil {
			t.Fatalf("Random produced a non-concave A: %+v", v)
		}

		var cnt matrix.OpCount
		pooledVal, pooledCut := Mul(a, b, &cnt)
		bottomCut := CutBottomUp(a, b, &cnt)
		bruteVal, _ := matrix.MulBrute(a, b, &cnt)
		smawkCut := CutSMAWK(a, b, &cnt)
		smawkParCut := CutSMAWKPar(pram.New(pram.WithWorkers(4), pram.WithGrain(1)), a, b, &cnt)

		if !pooledVal.Equal(bruteVal, 0) {
			t.Fatalf("(%d,%d,%d): concave product differs from brute force", p, q, r)
		}
		for i := 0; i < p; i++ {
			for j := 0; j < r; j++ {
				if pooledCut.At(i, j) != bottomCut.At(i, j) {
					t.Fatalf("(%d,%d,%d): recursive cut (%d,%d)=%d, bottom-up %d",
						p, q, r, i, j, pooledCut.At(i, j), bottomCut.At(i, j))
				}
				if smawkParCut.At(i, j) != smawkCut.At(i, j) {
					t.Fatalf("(%d,%d,%d): parallel SMAWK cut (%d,%d)=%d, sequential %d",
						p, q, r, i, j, smawkParCut.At(i, j), smawkCut.At(i, j))
				}
				// A cut must witness the product value exactly.
				if k := pooledCut.At(i, j); k >= 0 {
					if w := a.At(i, k) + b.At(k, j); w != pooledVal.At(i, j) {
						t.Fatalf("(%d,%d,%d): cut %d at (%d,%d) witnesses %v, product %v",
							p, q, r, k, i, j, w, pooledVal.At(i, j))
					}
				}
			}
		}
		pooledVal.Release()
		pooledCut.Release()
		bottomCut.Release()
		smawkParCut.Release()
	})
}

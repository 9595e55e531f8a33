package monge

import (
	"math/rand"
	"testing"

	"partree/internal/matrix"
	"partree/internal/pram"
	"partree/internal/semiring"
)

// FuzzConcaveMultiply differentially checks the concave (min,+) engines on
// fuzz-shaped random concave inputs: the Section 4.1 recursive product and
// the Section 4.2 bottom-up product must match the brute-force product
// value-for-value, so recycled workspace slabs can never leak state into a
// result unnoticed. The shape byte picks full operands with planted +∞
// rows and columns, A_h-style bands or upper triangles; the ∞-padded
// shapes drive the output hulls' edges, where the recursion must agree
// with brute force cut for cut, and the holes leave +∞ gaps inside the
// spans and empty rows between stored ones, where the column envelopes
// are only a superset and the product lays B out again.
// Fuzz with `go test -fuzz=FuzzConcaveMultiply ./internal/monge`.
func FuzzConcaveMultiply(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(6), uint8(10), uint8(3), uint8(0))
	f.Add(int64(7), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0))
	f.Add(int64(42), uint8(17), uint8(2), uint8(31), uint8(50), uint8(7), uint8(0))
	f.Add(int64(-3), uint8(33), uint8(40), uint8(9), uint8(0), uint8(0), uint8(0))
	f.Add(int64(5), uint8(40), uint8(40), uint8(40), uint8(30), uint8(2), uint8(1))
	f.Add(int64(9), uint8(2), uint8(47), uint8(19), uint8(9), uint8(4), uint8(1))
	f.Add(int64(11), uint8(31), uint8(0), uint8(0), uint8(20), uint8(3), uint8(2))
	f.Add(int64(13), uint8(1), uint8(0), uint8(0), uint8(5), uint8(1), uint8(2))
	// Holes that leave B's spans off a staircase: a product that read
	// this B as laid out, without laying it out again, indexes outside
	// its slab.
	f.Add(int64(24), uint8(233), uint8(134), uint8(22), uint8(170), uint8(229), uint8(102))

	f.Fuzz(func(t *testing.T, seed int64, pb, qb, rb, span, maxDelta, shape uint8) {
		p := 1 + int(pb)%48
		q := 1 + int(qb)%48
		r := 1 + int(rb)%48
		rng := rand.New(rand.NewSource(seed))
		a := Random(rng, p, q, int(span)+1, int(maxDelta))
		b := Random(rng, q, r, int(span)+1, int(maxDelta))
		switch shape % 3 {
		case 0: // full operands with planted +∞ rows and columns
			a, b = holes(rng, a), holes(rng, b)
		case 1: // A_h ⋆ A_h: both operands finite on 1 ≤ j-i ≤ w
			w := 1 + rng.Intn(q)
			a, b = band(a, 1, w), band(b, 1, w)
		case 2: // M′ ⋆ M′: square, finite on i < j
			a = band(Random(rng, p, p, int(span)+1, int(maxDelta)), 1, p)
			b = band(Random(rng, p, p, int(span)+1, int(maxDelta)), 1, p)
			q, r = p, p
		}

		if v := Violations(a); v != nil {
			t.Fatalf("Random produced a non-concave A: %+v", v)
		}

		// One counter per engine, so a drift between the sequential and
		// the parallel §4.1 product cannot hide in a shared total.
		var mulCnt, bottomCnt, bruteCnt, parCnt matrix.OpCount
		pooledVal, pooledCut := Mul(a, b, &mulCnt)
		bottomCut := CutBottomUp(a, b, &bottomCnt)
		bruteVal, bruteCut := matrix.MulBrute(a, b, &bruteCnt)
		m := pram.New(pram.WithWorkers(4), pram.WithGrain(1))
		defer m.Close()
		parVal, parCut := MulPar(m, a, b, &parCnt)

		if !pooledVal.Equal(bruteVal, 0) || !parVal.Equal(bruteVal, 0) {
			t.Fatalf("(%d,%d,%d): concave product differs from brute force", p, q, r)
		}
		if s, par := mulCnt.Load(), parCnt.Load(); s != par {
			t.Fatalf("(%d,%d,%d): Mul charged %d comparisons, MulPar %d", p, q, r, s, par)
		}
		for i := 0; i < p; i++ {
			for j := 0; j < r; j++ {
				if pooledCut.At(i, j) != bruteCut.At(i, j) || parCut.At(i, j) != bruteCut.At(i, j) {
					t.Fatalf("(%d,%d,%d): cut (%d,%d) recursive %d, parallel %d, brute %d",
						p, q, r, i, j, pooledCut.At(i, j), parCut.At(i, j), bruteCut.At(i, j))
				}
				if pooledCut.At(i, j) != bottomCut.At(i, j) {
					t.Fatalf("(%d,%d,%d): recursive cut (%d,%d)=%d, bottom-up %d",
						p, q, r, i, j, pooledCut.At(i, j), bottomCut.At(i, j))
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
		parVal.Release()
		parCut.Release()
		bottomCut.Release()
	})
}

// holes sets about a sixth of d's rows and of its columns to +∞, which
// keeps a Monge matrix Monge (every quadrangle through a hole reads
// ∞ ≤ ∞), and returns it with the spans Trim scans: the +∞ columns
// become gaps inside the rows' spans.
func holes(rng *rand.Rand, d *matrix.Dense) *matrix.Dense {
	rows, cols := make([]bool, d.R), make([]bool, d.C)
	for i := range rows {
		rows[i] = rng.Intn(6) == 0
	}
	for j := range cols {
		cols[j] = rng.Intn(6) == 0
	}
	return trimmed(d.R, d.C, func(i, j int) float64 {
		if rows[i] || cols[j] {
			return semiring.Inf
		}
		return d.At(i, j)
	})
}

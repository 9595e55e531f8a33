package hufpar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"partree/internal/matrix"
	"partree/internal/monge"
	"partree/internal/pram"
	"partree/internal/semiring"
	"partree/internal/workload"
	"partree/internal/xmath"
)

// sameDense fails unless got, stored by spans, reads bit for bit like the
// dense table want at every entry. With finite set, it also requires got
// to store exactly want's finite entries.
func sameDense(t *testing.T, what string, got, want *matrix.Dense, finite bool) {
	t.Helper()
	for i := 0; i < want.R; i++ {
		lo, hi := got.Span(i)
		for j := 0; j < want.C; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: (%d,%d) = %v, dense %v", what, i, j, g, w)
			}
			if finite && (j >= lo && j <= hi) == semiring.IsInf(w) {
				t.Fatalf("%s: row %d stores [%d,%d], dense (%d,%d) = %v", what, i, lo, hi, i, j, w)
			}
		}
	}
}

func sameCut(t *testing.T, what string, got, want *matrix.IntMat) {
	t.Helper()
	for i := 0; i < want.R; i++ {
		for j := 0; j < want.C; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: cut (%d,%d) = %d, dense %d", what, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestSpanLevelsMatchDense builds every matrix of the Section 5 pipeline
// both ways for random n ≤ 64: by span producers (heightBand,
// heightLevel, pathMatrix, MulPar) and as dense (n+1)² tables filled with
// +∞ and multiplied by brute force. A_h at every level (one past the
// last, so a saturated band is covered too), M′ and each of its
// squarings must read bit for bit alike, with equal cut tables, and A_h
// and M′ must store exactly their finite entries.
func TestSpanLevelsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(641))
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(8))
	defer m.Close()
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(63)
		w := workload.SortedAscending(workload.Random(rng, n))
		pre := prefixSums(w)
		name := fmt.Sprintf("trial %d n=%d", trial, n)

		da := matrix.NewFull(n+1, n+1, semiring.Inf)
		for i := 0; i < n; i++ {
			da.Set(i, i+1, 0)
		}
		a := heightBand(n, 0)
		sameDense(t, name+" A_0", a, da, true)
		for h := 1; h <= xmath.CeilLog2(n)+1; h++ {
			prod, wantCut := matrix.MulBrute(da, da, nil)
			next := matrix.NewFull(n+1, n+1, semiring.Inf)
			for i := 0; i <= n; i++ {
				for j := i + 1; j <= n; j++ {
					if j == i+1 {
						next.Set(i, j, 0)
					} else {
						next.Set(i, j, prod.At(i, j)+(pre[j]-pre[i]))
					}
				}
			}
			got, cut, _ := heightLevel(m, a, pre, h, monge.MulPar, nil)
			sameDense(t, fmt.Sprintf("%s A_%d", name, h), got, next, true)
			sameCut(t, fmt.Sprintf("%s A_%d", name, h), cut, wantCut)
			cut.Release()
			a.Release()
			a, da = got, next
		}

		dmp := matrix.NewFull(n+1, n+1, semiring.Inf)
		dmp.Set(0, 0, 0)
		dmp.Set(0, 1, 0)
		for i := 1; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				dmp.Set(i, j, da.At(i, j)+(pre[j]-pre[0]))
			}
		}
		mp := pathMatrix(m, a, pre)
		a.Release()
		sameDense(t, name+" M′", mp, dmp, true)
		cur, dcur := mp, dmp
		for sq := 1; sq <= xmath.CeilLog2(n+1); sq++ {
			dnext, wantCut := matrix.MulBrute(dcur, dcur, nil)
			next, cut := monge.MulPar(m, cur, cur, nil)
			what := fmt.Sprintf("%s (M′)^%d", name, 1<<sq)
			sameDense(t, what, next, dnext, false)
			sameCut(t, what, cut, wantCut)
			cut.Release()
			cur.Release()
			cur, dcur = next, dnext
		}
		cur.Release()
	}
}

// TestLayoutsAreStaircases checks that every layout the Section 5
// pipeline multiplies is a staircase (matrix.Spans.Staircase): A_t at
// every level up to one past saturation, and M′, for n = 1 … 300. The
// product of two staircases has a staircase hull (monge's
// TestStaircaseProductIsStaircase), so M′'s squarings are staircases too,
// and every concave product here reads B without re-laying it out.
func TestLayoutsAreStaircases(t *testing.T) {
	m := pram.New(pram.WithWorkers(1))
	defer m.Close()
	for n := 1; n <= 300; n++ {
		levels := xmath.CeilLog2(n)
		for h := 0; h <= levels+1; h++ {
			a := heightBand(n, h)
			if !a.Staircase() {
				t.Fatalf("n=%d: A_%d is not a staircase", n, h)
			}
			a.Release()
		}
		a := heightBand(n, levels)
		mp := pathMatrix(m, a, make([]float64, n+1))
		if !mp.Staircase() {
			t.Fatalf("n=%d: M′ is not a staircase", n)
		}
		mp.Release()
		a.Release()
	}
}

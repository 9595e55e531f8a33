package obst

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"partree/internal/matrix"
	"partree/internal/pram"
	"partree/internal/semiring"
	"partree/internal/xmath"
)

// sameDense fails unless got, stored by spans, reads bit for bit like the
// dense table want at every entry and stores exactly want's finite
// entries.
func sameDense(t *testing.T, what string, got, want *matrix.Dense) {
	t.Helper()
	for i := 0; i < want.R; i++ {
		lo, hi := got.Span(i)
		for j := 0; j < want.C; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: (%d,%d) = %v, dense %v", what, i, j, g, w)
			}
			if (j >= lo && j <= hi) == semiring.IsInf(w) {
				t.Fatalf("%s: row %d stores [%d,%d], dense (%d,%d) = %v", what, i, lo, hi, i, j, w)
			}
		}
	}
}

// TestSpanLevelsMatchDense builds the height-bounded DP's tables both
// ways for random n ≤ 64: by span producers (levelBand, the Shift view,
// nextLevel) and as dense (n+1)² tables filled with +∞, shifted entry by
// entry and multiplied by brute force. E_t and shift(E_t) at every level
// up to two past the band's saturation must read bit for bit alike and
// store exactly their finite entries, with equal cut tables.
func TestSpanLevelsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(643))
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(8))
	defer m.Close()
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(64)
		in := randInstance(rng, n)
		w := in.weights()
		de := matrix.NewFull(n+1, n+1, semiring.Inf)
		for a := 0; a <= n; a++ {
			de.Set(a, a, 0)
		}
		e := levelBand(n, 0)
		sameDense(t, fmt.Sprintf("trial %d n=%d E_0", trial, n), e, de)
		for lv := 1; lv <= xmath.CeilLog2(n+1)+2; lv++ {
			what := fmt.Sprintf("trial %d n=%d level %d", trial, n, lv)
			dshift := matrix.NewFull(n+1, n+1, semiring.Inf)
			for a := 0; a <= n; a++ {
				for k := 1; k <= n; k++ {
					dshift.Set(a, k, de.At(a, k-1))
				}
			}
			shifted := e.Shift(1)
			sameDense(t, what+" shift(E)", shifted, dshift)
			shifted.Release()
			prod, wantCut := matrix.MulBrute(dshift, de, nil)
			dnext := matrix.NewFull(n+1, n+1, semiring.Inf)
			for a := 0; a <= n; a++ {
				dnext.Set(a, a, 0)
				for b := a + 1; b <= n; b++ {
					if p := prod.At(a, b); !semiring.IsInf(p) {
						dnext.Set(a, b, p+w(a, b))
					}
				}
			}
			next, cut, _ := nextLevel(m, e, w, lv, nil)
			sameDense(t, what+" E", next, dnext)
			for i := 0; i <= n; i++ {
				for j := 0; j <= n; j++ {
					if cut.At(i, j) != wantCut.At(i, j) {
						t.Fatalf("%s: cut (%d,%d) = %d, dense %d", what, i, j, cut.At(i, j), wantCut.At(i, j))
					}
				}
			}
			cut.Release()
			e.Release()
			e, de = next, dnext
		}
		e.Release()
	}
}

// TestLayoutsAreStaircases checks that E_t, the B operand of every
// product of the height-bounded DP, is a staircase
// (matrix.Spans.Staircase) at every level up to two past saturation for
// n = 1 … 300, so those products read it without re-laying it out.
func TestLayoutsAreStaircases(t *testing.T) {
	for n := 1; n <= 300; n++ {
		for lv := 0; lv <= xmath.CeilLog2(n+1)+2; lv++ {
			e := levelBand(n, lv)
			if !e.Staircase() {
				t.Fatalf("n=%d: E_%d is not a staircase", n, lv)
			}
			e.Release()
		}
	}
}

package monge

import (
	"math/rand"
	"testing"

	"partree/internal/matrix"
	"partree/internal/pram"
	"partree/internal/semiring"
)

// supportMatrix returns an r×c matrix that is 0 where finite[i][j] holds
// and +∞ elsewhere, with the spans Trim scans; only its finite support
// matters to the hull.
func supportMatrix(r, c int, finite func(i, j int) bool) *matrix.Dense {
	return trimmed(r, c, func(i, j int) float64 {
		if finite(i, j) {
			return 0
		}
		return semiring.Inf
	})
}

// randomSupport draws n finite-support sets over [0, m): intervals whose
// ends are nondecreasing in the set index when monotone holds, otherwise
// intervals and gappy sets in any order. Empty sets are forced at the
// start, the middle and the end, and sprinkled elsewhere.
func randomSupport(rng *rand.Rand, n, m int, monotone bool) [][]bool {
	sets := make([][]bool, n)
	lo, hi := 0, 0
	for x := range sets {
		sets[x] = make([]bool, m)
		if x == 0 || x == n/2 || x == n-1 || rng.Intn(5) == 0 {
			continue
		}
		switch {
		case monotone:
			lo += rng.Intn(3)
			hi = max(hi+rng.Intn(4), lo)
			for k := lo; k <= hi && k < m; k++ {
				sets[x][k] = true
			}
		case rng.Intn(2) == 0:
			a, b := rng.Intn(m), rng.Intn(m)
			for k := min(a, b); k <= max(a, b); k++ {
				sets[x][k] = true
			}
		default:
			for k := range sets[x] {
				sets[x][k] = rng.Intn(3) == 0
			}
		}
	}
	return sets
}

// span returns the first and last true index of s, or (len(s), -1).
func span(s []bool) (int, int) {
	lo, hi := len(s), -1
	for k, ok := range s {
		if ok {
			lo, hi = min(lo, k), k
		}
	}
	return lo, hi
}

// TestOutputHull checks the per-row output hulls against the definition:
// every column j whose candidate range [max(loA[i], loB[j]),
// min(hiA[i], hiB[j])] is non-empty lies in the hull of row i, and when
// B's column envelopes are nondecreasing the hull is exactly the span of
// those columns. It then checks that newCut lays random views out on the
// hull: stored positions enumerate the hull entries row by row, and every
// entry outside reads -1.
func TestOutputHull(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		p, q, r := 1+rng.Intn(30), 1+rng.Intn(30), 1+rng.Intn(30)
		monotone := trial%2 == 0
		rows := randomSupport(rng, p, q, rng.Intn(2) == 0)
		cols := randomSupport(rng, r, q, monotone)
		a := supportMatrix(p, q, func(i, k int) bool { return rows[i][k] })
		b := supportMatrix(q, r, func(k, j int) bool { return cols[j][k] })
		var cnt matrix.OpCount
		c := newMulCtx(a, b, &cnt)

		for i := 0; i < p; i++ {
			loA, hiA := span(rows[i])
			flo, fhi := r, -1
			for j := 0; j < r; j++ {
				loB, hiB := span(cols[j])
				if max(loA, loB) <= min(hiA, hiB) {
					flo, fhi = min(flo, j), j
					if j < c.hlo[i] || j > c.hhi[i] {
						t.Fatalf("trial %d row %d: finite column %d outside hull [%d,%d]",
							trial, i, j, c.hlo[i], c.hhi[i])
					}
				}
			}
			if monotone && fhi >= 0 && (c.hlo[i] != flo || c.hhi[i] != fhi) {
				t.Fatalf("trial %d row %d: nondecreasing envelopes, hull [%d,%d], finite span [%d,%d]",
					trial, i, c.hlo[i], c.hhi[i], flo, fhi)
			}
			if monotone && fhi < 0 && c.hlo[i] <= c.hhi[i] {
				t.Fatalf("trial %d row %d: nondecreasing envelopes, no finite column, hull [%d,%d]",
					trial, i, c.hlo[i], c.hhi[i])
			}
		}

		rs, cs := 1+rng.Intn(4), 1+rng.Intn(4)
		vp, vr := stridedCount(p, rs), stridedCount(r, cs)
		cut := c.newCut(rs, cs)
		e := 0
		for ii := 0; ii < vp; ii++ {
			for jj := 0; jj < vr; jj++ {
				in := jj*cs >= c.hlo[ii*rs] && jj*cs <= c.hhi[ii*rs]
				if !in {
					if cut.At(ii, jj) != -1 {
						t.Fatalf("trial %d view (%d,%d): entry (%d,%d) outside the hull not -1", trial, rs, cs, ii, jj)
					}
					continue
				}
				gi, gj := -1, -1
				cut.Walk(e, e+1, func(i, j0, _ int) { gi, gj = i, j0 })
				if got := cut.RowOf(e); got != ii || gi != ii || gj != jj {
					t.Fatalf("trial %d view (%d,%d): position %d maps to row %d (walk %d) col %d, want (%d,%d)",
						trial, rs, cs, e, got, gi, gj, ii, jj)
				}
				e++
			}
		}
		if n := cut.Len(); e != n {
			t.Fatalf("trial %d view (%d,%d): cut table stores %d entries, hull has %d", trial, rs, cs, n, e)
		}
		cut.Release()
		c.close()
	}
}

// TestBandProductWork pins the hull's saving in counted work: the product
// of two n×n bands finite on 1 ≤ j-i ≤ w has about (2w-1)·n finite
// entries, and MulPar's statements must visit a small multiple of those
// (the recursion's views shrink geometrically), not of n².
func TestBandProductWork(t *testing.T) {
	const n, w = 256, 16
	rng := rand.New(rand.NewSource(53))
	a, b := randomBand(rng, n, n, 1, w), randomBand(rng, n, n, 1, w)
	m := pram.New(pram.WithWorkers(1))
	defer m.Close()
	var cnt matrix.OpCount
	prod, cut := MulPar(m, a, b, &cnt)
	finite := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !semiring.IsInf(prod.At(i, j)) {
				finite++
			}
		}
	}
	work := m.Counters().Work
	t.Logf("n=%d w=%d: %d finite entries, work %d (n² = %d)", n, w, finite, work, n*n)
	if work > 4*int64(finite) {
		t.Fatalf("band product work %d exceeds 4× its %d finite entries", work, finite)
	}
	prod.Release()
	cut.Release()
}

// TestColumnEnvelopes checks the two-pointer column envelopes against a
// dense scan of B's finite entries, the pass they replace: equal when
// B's rows are intervals whose ends are nondecreasing (the paper's band
// and triangle shapes, empty rows included), and containing it when
// rows have +∞ holes or ends in any order.
func TestColumnEnvelopes(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 400; trial++ {
		q, r := 1+rng.Intn(64), 1+rng.Intn(64)
		interval := trial%2 == 0
		rows := randomSupport(rng, q, r, interval)
		b := supportMatrix(q, r, func(k, j int) bool { return rows[k][j] })
		a := matrix.New(1, q)
		var cnt matrix.OpCount
		c := newMulCtx(a, b, &cnt)
		for j := 0; j < r; j++ {
			lo, hi := q, -1
			for k := 0; k < q; k++ {
				if !semiring.IsInf(b.At(k, j)) {
					lo, hi = min(lo, k), k
				}
			}
			switch {
			case interval && (c.loB[j] != lo || c.hiB[j] != hi) && hi >= 0:
				t.Fatalf("trial %d column %d: envelope [%d,%d], dense scan [%d,%d]", trial, j, c.loB[j], c.hiB[j], lo, hi)
			case interval && hi < 0 && c.loB[j] <= c.hiB[j]:
				t.Fatalf("trial %d column %d: no finite row, envelope [%d,%d]", trial, j, c.loB[j], c.hiB[j])
			case hi >= 0 && (c.loB[j] > lo || c.hiB[j] < hi):
				t.Fatalf("trial %d column %d: envelope [%d,%d] misses dense scan [%d,%d]", trial, j, c.loB[j], c.hiB[j], lo, hi)
			}
		}
		c.close()
		b.Release()
	}
}

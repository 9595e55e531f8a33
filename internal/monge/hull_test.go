package monge

import (
	"math/rand"
	"testing"

	"partree/internal/matrix"
	"partree/internal/pram"
	"partree/internal/semiring"
)

// supportMatrix returns an r×c matrix that is 0 where finite[i][j] holds
// and +∞ elsewhere; only its finite support matters to the hull.
func supportMatrix(r, c int, finite func(i, j int) bool) *matrix.Dense {
	d := matrix.NewInf(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if finite(i, j) {
				d.Set(i, j, 0)
			}
		}
	}
	return d
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
// those columns. It then checks the compact index space of random views
// and the -1 fill of newCut outside it.
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
		cut, n := c.newCut(rs, cs)
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
				if got := c.rowAt(e, vp); got != ii || c.first[ii]+e-c.off[ii] != jj {
					t.Fatalf("trial %d view (%d,%d): position %d maps to row %d col %d, want (%d,%d)",
						trial, rs, cs, e, got, c.first[got]+e-c.off[got], ii, jj)
				}
				e++
			}
		}
		if e != n {
			t.Fatalf("trial %d view (%d,%d): index space has %d positions, hull has %d", trial, rs, cs, n, e)
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

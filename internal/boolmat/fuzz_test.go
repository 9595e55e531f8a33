package boolmat

import (
	"math/rand"
	"testing"
)

// FuzzBoolOps differentially checks the word kernels against a bit-by-bit
// oracle on fuzz-shaped operands of 0–130 columns, so that shapes of 63,
// 64 and 65 columns drive both the one-word paths of MulInto and OrBits
// and their multi-word loops:
//
//   - MulInto ORs a·b into an out that already holds bits;
//   - OrBits copies bit ranges at random offsets between two rows;
//   - OrRows ORs a random run of rows between matrices of one width.
//
// Fuzz with `go test -fuzz=FuzzBoolOps ./internal/boolmat`.
func FuzzBoolOps(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(63), uint8(64))
	f.Add(int64(2), uint8(5), uint8(64), uint8(65))
	f.Add(int64(3), uint8(1), uint8(65), uint8(63))
	f.Add(int64(4), uint8(0), uint8(0), uint8(0))
	f.Add(int64(5), uint8(9), uint8(1), uint8(130))
	f.Add(int64(6), uint8(39), uint8(130), uint8(12))

	f.Fuzz(func(t *testing.T, seed int64, pb, qb, rb uint8) {
		p, q, r := int(pb)%40, int(qb)%131, int(rb)%131
		rng := rand.New(rand.NewSource(seed))
		// Sparse operands mostly, so that a product row is rarely all
		// ones and a wrong word shows.
		sparse := func() float64 { d := rng.Float64(); return d * d * d }
		a := randMat(rng, p, q, sparse())
		b := randMat(rng, q, r, sparse())

		out := randMat(rng, p, r, sparse())
		want := out.Clone()
		for i := 0; i < p; i++ {
			for j := 0; j < r; j++ {
				for k := 0; k < q; k++ {
					if a.Get(i, k) && b.Get(k, j) {
						want.Set(i, j, true)
						break
					}
				}
			}
		}
		MulInto(out, a, b)
		if !out.Equal(want) {
			t.Fatalf("MulInto %d×%d·%d×%d:\ngot\n%vwant\n%v", p, q, q, r, out, want)
		}

		// OrBits from a row of a (q columns) into a row of out (r).
		for x := 0; x < 8 && p > 0; x++ {
			sc, dc := rng.Intn(q+1), rng.Intn(r+1)
			n := rng.Intn(min(q-sc, r-dc) + 1)
			si, di := rng.Intn(p), rng.Intn(p)
			orBitsNaive(want, di, dc, a, si, sc, n)
			out.OrBits(di, dc, a, si, sc, n)
			if !out.Equal(want) {
				t.Fatalf("OrBits(di=%d, dc=%d, si=%d, sc=%d, n=%d) on %d and %d columns:\ngot\n%vwant\n%v",
					di, dc, si, sc, n, r, q, out, want)
			}
		}

		// OrRows from rows of b into rows of out: both have r columns.
		for x := 0; x < 4; x++ {
			si, di := rng.Intn(q+1), rng.Intn(p+1)
			n := rng.Intn(min(q-si, p-di) + 1)
			for y := 0; y < n; y++ {
				for j := 0; j < r; j++ {
					if b.Get(si+y, j) {
						want.Set(di+y, j, true)
					}
				}
			}
			out.OrRows(di, b, si, n)
			if !out.Equal(want) {
				t.Fatalf("OrRows(di=%d, si=%d, n=%d) on %d columns:\ngot\n%vwant\n%v", di, si, n, r, out, want)
			}
		}
	})
}

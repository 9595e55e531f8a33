package monge

import (
	"sort"

	"partree/internal/matrix"
	"partree/internal/pool"
	"partree/internal/semiring"
	"partree/internal/xmath"
)

// mulCtx carries the shared state of one Cut(A,B) computation: the input
// matrices, the comparison counter, the finite-support envelopes, and the
// per-row output hulls derived from them.
//
// The paper's DP matrices are ∞-padded (A_h is +∞ outside the band
// 0 < j-i ≤ 2^h; M′ is +∞ below the diagonal), and most entries of their
// products are +∞. A candidate k can only be finite when A[i][k] and
// B[k][j] both are, so every scan is clamped to
// [max(loA[i], loB[j]), min(hiA[i], hiB[j])], where loA/hiA bound the
// finite entries of A's rows and loB/hiB those of B's columns. Without
// the clamp, an entry whose neighbours have undefined cuts would fall
// back to scanning all q candidates, destroying the O(n²) comparison
// bound.
//
// The output hull [hlo[i], hhi[i]] of row i holds every column j whose
// clamped range is non-empty; outside it the cut is -1 and the product
// +∞ without a scan, so the recursion's statements run only over the
// hull entries of their view (see index). With P the prefix-max of hiB
// and S the suffix-min of loB (both nondecreasing), a non-empty range
// needs hiB[j] ≥ loA[i] and loB[j] ≤ hiA[i], hence P[j] ≥ loA[i] and
// S[j] ≤ hiA[i]; the hull is the span of the columns passing both tests,
// found by two binary searches. It is sound for any envelopes, and exact
// (the span of the finite columns) when loB and hiB are nondecreasing
// over B's non-empty columns — the paper's band and triangle shapes. For
// matrices with gaps the clamp and the hull are sound over-approximations
// (the extra candidates are +∞ and lose every comparison).
type mulCtx struct {
	a, b     *matrix.Dense
	loA, hiA []int // per row of a: first/last finite column (q/-1 if none)
	loB, hiB []int // per column of b: first/last finite row (q/-1 if none)
	hlo, hhi []int // per row of a: output hull in columns of b (hlo > hhi if empty)
	// The compact index space of the current view: view row ii owns
	// positions off[ii] … off[ii+1]-1, which are view columns first[ii],
	// first[ii]+1, …. Rebuilt by index before each statement.
	off, first []int
	cnt        *matrix.OpCount
}

func newMulCtx(a, b *matrix.Dense, cnt *matrix.OpCount) *mulCtx {
	if a.C != b.R {
		panic("monge: dimension mismatch")
	}
	c := &mulCtx{
		a: a, b: b, cnt: cnt,
		loA: pool.Ints(a.R), hiA: pool.Ints(a.R),
		loB: pool.Ints(b.C), hiB: pool.Ints(b.C),
		hlo: pool.Ints(a.R), hhi: pool.Ints(a.R),
		off: pool.Ints(a.R + 1), first: pool.Ints(a.R),
	}
	for i := 0; i < a.R; i++ {
		row := a.Row(i)
		lo, hi := a.C, -1
		for k, v := range row {
			if !semiring.IsInf(v) {
				if lo == a.C {
					lo = k
				}
				hi = k
			}
		}
		c.loA[i], c.hiA[i] = lo, hi
	}
	for j := range c.loB {
		c.loB[j], c.hiB[j] = b.R, -1
	}
	for k := 0; k < b.R; k++ {
		for j, v := range b.Row(k) {
			if !semiring.IsInf(v) {
				if c.loB[j] == b.R {
					c.loB[j] = k
				}
				c.hiB[j] = k
			}
		}
	}
	// The envelope pass reads every input entry once; charge it so the
	// counters stay honest.
	c.cnt.Add(int64(a.R)*int64(a.C) + int64(b.R)*int64(b.C))
	c.hulls()
	return c
}

// hulls fills hlo/hhi from the envelopes (see mulCtx).
func (c *mulCtx) hulls() {
	r := c.b.C
	pmax, smin := pool.Ints(r), pool.Ints(r)
	defer pool.PutInts(pmax)
	defer pool.PutInts(smin)
	run := -1
	for j := 0; j < r; j++ {
		run = max(run, c.hiB[j])
		pmax[j] = run
	}
	run = c.b.R
	for j := r - 1; j >= 0; j-- {
		run = min(run, c.loB[j])
		smin[j] = run
	}
	// First j with pmax[j] ≥ loA[i], last j with smin[j] ≤ hiA[i]; an
	// all-∞ row (loA = q, hiA = -1) gets the empty hull [r, -1].
	for i := range c.hlo {
		c.hlo[i] = sort.Search(r, func(j int) bool { return pmax[j] >= c.loA[i] })
		c.hhi[i] = sort.Search(r, func(j int) bool { return smin[j] > c.hiA[i] }) - 1
	}
}

// index lays out the compact index space of the view with row stride rs
// and column stride cs: the hull entries of each view row, row after row.
// It returns the size of the space.
func (c *mulCtx) index(rs, cs int) int {
	p := stridedCount(c.a.R, rs)
	n := 0
	for ii := 0; ii < p; ii++ {
		lo, hi := c.hlo[ii*rs], c.hhi[ii*rs]
		c.off[ii], c.first[ii] = n, xmath.CeilDiv(lo, cs)
		if lo <= hi {
			n += max(0, hi/cs-c.first[ii]+1)
		}
	}
	c.off[p] = n
	return n
}

// rowAt returns the view row that owns compact position e of the current
// view, which has p rows.
func (c *mulCtx) rowAt(e, p int) int {
	return sort.Search(p, func(ii int) bool { return c.off[ii+1] > e })
}

// newCut lays out the compact index space of the view with row stride rs
// and column stride cs and returns its size together with a cut table for
// the view holding -1 (what scan returns there) in every entry outside
// the hull; the caller's statement fills the hull entries.
func (c *mulCtx) newCut(rs, cs int) (*matrix.IntMat, int) {
	n := c.index(rs, cs)
	p, r := stridedCount(c.a.R, rs), stridedCount(c.b.C, cs)
	out := matrix.NewIntFromPool(p, r)
	for ii := 0; ii < p; ii++ {
		lo, hi := c.first[ii], c.first[ii]+c.off[ii+1]-c.off[ii]
		if lo == hi {
			lo, hi = r, r
		}
		for jj := 0; jj < lo; jj++ {
			out.Set(ii, jj, -1)
		}
		for jj := hi; jj < r; jj++ {
			out.Set(ii, jj, -1)
		}
	}
	return out, n
}

// close returns the envelope, hull and index slabs to the workspace arena.
// Call once the product is finished; the ctx must not be used afterwards.
func (c *mulCtx) close() {
	for _, s := range [][]int{c.loA, c.hiA, c.loB, c.hiB, c.hlo, c.hhi, c.off, c.first} {
		pool.PutInts(s)
	}
	c.loA, c.hiA, c.loB, c.hiB, c.hlo, c.hhi, c.off, c.first = nil, nil, nil, nil, nil, nil, nil, nil
}

// scan returns the minimum of A[i][k]+B[k][j] over k ∈ [lo, hi] clamped to
// the finite-support envelope, together with the smallest minimizing k
// (-1 if every candidate is +∞), charging one comparison per candidate.
func (c *mulCtx) scan(i, j, lo, hi int) (float64, int) {
	if e := c.loA[i]; e > lo {
		lo = e
	}
	if e := c.loB[j]; e > lo {
		lo = e
	}
	if e := c.hiA[i]; e < hi {
		hi = e
	}
	if e := c.hiB[j]; e < hi {
		hi = e
	}
	best, arg := semiring.Inf, -1
	if lo > hi {
		c.cnt.Add(1)
		return best, arg
	}
	arow := c.a.Row(i)
	for k := lo; k <= hi; k++ {
		if s := arow[k] + c.b.At(k, j); s < best {
			best, arg = s, k
		}
	}
	c.cnt.Add(int64(hi - lo + 1))
	return best, arg
}

package monge

import (
	"sort"

	"partree/internal/matrix"
	"partree/internal/pool"
	"partree/internal/semiring"
	"partree/internal/xmath"
)

// mulCtx carries the shared state of one Cut(A,B) computation: the input
// matrices, the comparison counter, the column envelopes of B, the
// per-row output hulls derived from them, and B's row bases for the
// unchecked reads of the inner loop.
//
// The paper's DP matrices are ∞-padded (A_h is +∞ outside the band
// 0 < j-i ≤ 2^h; M′ is +∞ below the diagonal), and their matrices store
// only the span of each row that can be finite (matrix.Spans). A
// candidate k can only be finite when A[i][k] and B[k][j] are both
// stored, so every scan is clamped to [max(loA[i], loB[j]),
// min(hiA[i], hiB[j])], where [loA[i], hiA[i]] is A's row span and
// [loB[j], hiB[j]] bounds the rows of B that store column j. Without the
// clamp, an entry whose neighbours have undefined cuts would fall back to
// scanning all q candidates, destroying the O(n²) comparison bound.
//
// The column envelopes come from one two-pointer pass over B's row spans
// (envelopes): loB[j] is the first row whose span, or an earlier row's,
// reaches column j, and hiB[j] the last row whose span, or a later
// row's, starts at or before it. Both are nondecreasing in j.
//
// The scans read B without a span check: B[k][j] is bv[base[k]+j], with
// base[k] B's row base (matrix.Spans.Base). That is sound only where
// every row in [loB[j], hiB[j]] stores column j. It holds when B's spans
// are a staircase (matrix.Spans.Staircase) — the paper's band and
// triangle shapes, and every product of them, so every matrix the
// Huffman and search-tree pipelines multiply. Any other B (a trimmed
// dense input with +∞ rows or holes) is laid out once on its envelopes
// instead (relayout): row k stores the columns j with
// loB[j] ≤ k ≤ hiB[j], +∞ where B stores nothing. The envelopes, hulls
// and comparisons are still those of B, and the extra candidates read
// +∞ and lose every comparison, so cuts are unchanged.
//
// The output hull [hlo[i], hhi[i]] of row i holds every column j whose
// clamped range is non-empty: the first j with hiB[j] ≥ loA[i] through
// the last j with loB[j] ≤ hiA[i], found by two binary searches. Every
// cut table of the recursion is laid out on the hull at its view's
// strides, so outside the hull the cut is -1 and the product +∞ without
// a scan or a write, and each statement runs over its table's stored
// entries only.
type mulCtx struct {
	a, b     *matrix.Dense
	loB, hiB []int     // per column of b: first/last row that may store it (q/-1 if none)
	hlo, hhi []int     // per row of a: output hull in columns of b (hlo > hhi if empty)
	bv       []float64 // b's value slab
	base     []int     // per row k of b: B[k][j] is bv[base[k]+j] for loB[j] ≤ k ≤ hiB[j]
	relaid   bool      // b is the ctx's own re-layout of the caller's B
	cnt      *matrix.OpCount
}

func newMulCtx(a, b *matrix.Dense, cnt *matrix.OpCount) *mulCtx {
	if a.C != b.R {
		panic("monge: dimension mismatch")
	}
	c := &mulCtx{
		a: a, b: b, cnt: cnt,
		loB: pool.Ints(b.C), hiB: pool.Ints(b.C),
		hlo: pool.Ints(a.R), hhi: pool.Ints(a.R),
		base: pool.Ints(b.R),
	}
	c.envelopes()
	// The spans are read once per row of each input; charge those reads.
	c.cnt.Add(int64(a.R) + int64(b.R))
	r := b.C
	for i := range c.hlo {
		lo, hi := a.Span(i)
		c.hlo[i] = sort.Search(r, func(j int) bool { return c.hiB[j] >= lo })
		c.hhi[i] = sort.Search(r, func(j int) bool { return c.loB[j] > hi }) - 1
	}
	if !b.Staircase() {
		c.b, c.relaid = c.relayout(), true
	}
	c.bv = c.b.Slab()
	for k := range c.base {
		c.base[k] = c.b.Base(k)
	}
	return c
}

// relayout returns a copy of B from the arena whose row k stores the
// columns j with loB[j] ≤ k ≤ hiB[j] — an interval, since both
// envelopes are nondecreasing — holding B's entry there, +∞ where B
// stores none.
func (c *mulCtx) relayout() *matrix.Dense {
	b, r := c.b, c.b.C
	out := matrix.NewSpan(b.R, r, func(k int) (int, int) {
		return sort.Search(r, func(j int) bool { return c.hiB[j] >= k }),
			sort.Search(r, func(j int) bool { return c.loB[j] > k }) - 1
	})
	for k := 0; k < out.R; k++ {
		lo, _ := out.Span(k)
		row := out.Row(k)
		for x := range row {
			row[x] = b.At(k, lo+x)
		}
	}
	return out
}

// envelopes fills loB/hiB from B's row spans with two pointers (see
// mulCtx). Empty rows reach no column.
func (c *mulCtx) envelopes() {
	q, r := c.b.R, c.b.C
	k, reach := 0, -1 // reach: the furthest column rows 0 … k-1 store
	for j := 0; j < r; j++ {
		for ; k < q && reach < j; k++ {
			if lo, hi := c.b.Span(k); lo <= hi {
				reach = max(reach, hi)
			}
		}
		c.loB[j] = q
		if reach >= j {
			c.loB[j] = k - 1
		}
	}
	k, reach = q-1, r // reach: the first column rows k+1 … q-1 store
	for j := r - 1; j >= 0; j-- {
		for ; k >= 0 && reach > j; k-- {
			if lo, hi := c.b.Span(k); lo <= hi {
				reach = min(reach, lo)
			}
		}
		c.hiB[j] = -1
		if reach <= j {
			c.hiB[j] = k + 1
		}
	}
}

// newCut returns a zero cut table for the view with row stride rs and
// column stride cs, laid out on the view's hull: view row ii stores view
// columns ⌈hlo/cs⌉ … ⌊hhi/cs⌋ of A's row ii·rs. Every other entry reads
// -1, which is what scan returns there; the caller's statement fills the
// stored entries.
func (c *mulCtx) newCut(rs, cs int) *matrix.IntMat {
	return matrix.NewIntSpan(stridedCount(c.a.R, rs), stridedCount(c.b.C, cs), func(ii int) (int, int) {
		lo, hi := c.hlo[ii*rs], c.hhi[ii*rs]
		if lo > hi {
			return 1, 0
		}
		return xmath.CeilDiv(lo, cs), hi / cs
	})
}

// close returns the envelope, hull and base slabs, and B's re-layout if
// any, to the workspace arena. Call once the product is finished; the
// ctx must not be used afterwards.
func (c *mulCtx) close() {
	for _, s := range [][]int{c.loB, c.hiB, c.hlo, c.hhi, c.base} {
		pool.PutInts(s)
	}
	if c.relaid {
		c.b.Release()
	}
	c.loB, c.hiB, c.hlo, c.hhi, c.base, c.bv, c.b = nil, nil, nil, nil, nil, nil, nil
}

// clamp narrows the candidate range [lo, hi] of entry (i, j) to the
// rows of B and columns of A that can be stored there.
func (c *mulCtx) clamp(i, j, lo, hi int) (int, int) {
	alo, ahi := c.a.Span(i)
	return max(lo, alo, c.loB[j]), min(hi, ahi, c.hiB[j])
}

// scan returns the minimum of A[i][k]+B[k][j] over k ∈ [lo, hi] clamped to
// the stored spans, together with the smallest minimizing k (-1 if every
// candidate is +∞), charging one comparison per candidate.
func (c *mulCtx) scan(i, j, lo, hi int) (float64, int) {
	best, arg, n := c.argmin(i, j, lo, hi)
	c.cnt.Add(n)
	return best, arg
}

// argmin is scan without the charge: it returns the comparisons made
// instead, so a phase can charge a whole row piece at once rather than
// touch the shared counter once per entry.
func (c *mulCtx) argmin(i, j, lo, hi int) (float64, int, int64) {
	lo, hi = c.clamp(i, j, lo, hi)
	best, arg := semiring.Inf, -1
	if lo > hi {
		return best, arg, 1
	}
	alo, _ := c.a.Span(i)
	arow := c.a.Row(i)[lo-alo : hi-alo+1]
	base, bv := c.base[lo:lo+len(arow)], c.bv
	for x, v := range arow {
		if s := v + bv[base[x]+j]; s < best {
			best, arg = s, lo+x
		}
	}
	return best, arg, int64(hi - lo + 1)
}

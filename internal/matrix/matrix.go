// Package matrix provides float64 matrices over the (min,+) semiring,
// stored by row spans (full rows, or the one finite interval of each row
// of the paper's ∞-padded DP matrices), together with the general
// (non-concave) matrix product that serves as the paper's
// O(n³)-comparison baseline, in both sequential and PRAM-parallel form.
// Cut (argmin) matrices are represented as IntMat.
//
// All products count comparisons through an OpCount so that experiment E2
// can contrast the Θ(pqr) comparisons of the general algorithm against the
// O(n²) comparisons of the concave algorithm in package monge.
package matrix

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"partree/internal/pool"
	"partree/internal/pram"
	"partree/internal/procid"
	"partree/internal/semiring"
)

// opStripes is the stripe count of an OpCount: enough that on common
// core counts each P lands on its own stripe. Power of two for the mask.
const opStripes = 16

// OpCount counts comparison operations across (possibly parallel) matrix
// products. The zero value is ready to use.
//
// The counter is striped by the caller's P onto cache-line-padded cells:
// every parallel scan body charges comparisons as it runs, so a single
// shared atomic would be the most contended word in the whole monge
// layer — all workers bouncing one cache line on every scan. Load and
// Reset sum/zero the stripes; they are coherent only between parallel
// statements (the usual read point), not mid-statement.
type OpCount struct {
	stripes [opStripes]struct {
		n atomic.Int64
		_ [56]byte // one stripe per cache line
	}
}

// Add records k comparisons.
func (c *OpCount) Add(k int64) {
	if c != nil {
		c.stripes[procid.Cur()&(opStripes-1)].n.Add(k)
	}
}

// Load returns the number of comparisons recorded so far.
func (c *OpCount) Load() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.stripes {
		n += c.stripes[i].n.Load()
	}
	return n
}

// Reset zeroes the counter.
func (c *OpCount) Reset() {
	if c != nil {
		for i := range c.stripes {
			c.stripes[i].n.Store(0)
		}
	}
}

// Spans is the row layout Dense and IntMat share. Row i stores columns
// lo…hi and nothing else; the rows are packed in order into one slab,
// row i from position off, so the last row's end is the number of stored
// entries. An empty row has hi = lo-1. Entries outside a row's span are
// not stored: they read as +∞ in a Dense and -1 in an IntMat, and
// writing one panics.
//
// A full matrix stores every column of every row. The concave pipeline's
// matrices (the paper's band A_h, the path matrix M′, the BST tables E_t
// and every product of them) store only the one interval of each row
// that can be finite, and their producers know those intervals in
// closed form, so no pass over an (R×C) layout is needed to find them.
type Spans struct {
	R, C int
	// sp holds row i's lo, hi and off at 3i, 3i+1 and 3i+2; sp[3R+2] is
	// the stored total.
	sp          []int
	pooledSpans bool
}

// makeSpans lays out r rows of c columns, row i storing span(i) clipped
// to [0, c-1]. The layout slab comes from the arena when pooled is set.
func makeSpans(r, c int, pooled bool, span func(i int) (lo, hi int)) Spans {
	if r < 0 || c < 0 {
		panic("matrix: negative dimension")
	}
	var sp []int
	if pooled {
		sp = pool.Ints(3*r + 3)
	} else {
		sp = make([]int, 3*r+3)
	}
	n := 0
	for i := 0; i < r; i++ {
		lo, hi := span(i)
		lo, hi = max(lo, 0), min(hi, c-1)
		if lo > hi {
			lo, hi = c, c-1
		}
		sp[3*i], sp[3*i+1], sp[3*i+2] = lo, hi, n
		n += hi - lo + 1
	}
	sp[3*r+2] = n
	return Spans{R: r, C: c, sp: sp, pooledSpans: pooled}
}

// empty is the span of a row that stores nothing.
func empty(int) (int, int) { return 1, 0 }

// copySpans returns a pooled copy of s's layout.
func (s *Spans) copySpans() Spans {
	sp := pool.Ints(len(s.sp))
	copy(sp, s.sp)
	return Spans{R: s.R, C: s.C, sp: sp, pooledSpans: true}
}

func (s *Spans) releaseSpans() {
	if s.pooledSpans {
		pool.PutInts(s.sp)
	}
	s.sp = nil
}

// Span returns the columns lo…hi that row i stores (hi = lo-1 when it
// stores none).
func (s *Spans) Span(i int) (lo, hi int) { return s.sp[3*i], s.sp[3*i+1] }

// pos returns the slab position of entry (i, j), or -1 when it lies
// outside row i's span.
func (s *Spans) pos(i, j int) int {
	r := s.sp[3*i : 3*i+3]
	if j < r[0] || j > r[1] {
		return -1
	}
	return r[2] + j - r[0]
}

// Base returns row i's slab base: entry (i, j) of a column j in the
// row's span sits at slab position Base(i)+j. A kernel that keeps the
// bases of the rows it reads indexes the slab without the span check.
func (s *Spans) Base(i int) int { return s.sp[3*i+2] - s.sp[3*i] }

// Staircase reports whether the non-empty rows are contiguous and both
// ends of their spans are nondecreasing: the layout of the paper's band
// and triangle matrices. Then the rows that store a column form one
// interval, so a column's first and last storing rows bound exactly
// the rows that store it.
func (s *Spans) Staircase() bool {
	prev, gap := -1, false // prev: the last non-empty row seen
	for i := 0; i < s.R; i++ {
		lo, hi := s.Span(i)
		switch {
		case lo > hi:
			gap = prev >= 0
		case prev >= 0 && (gap || lo < s.sp[3*prev] || hi < s.sp[3*prev+1]):
			return false
		default:
			prev = i
		}
	}
	return true
}

// Len returns the number of stored entries: the size of the index space
// a statement over the matrix's spans runs on.
func (s *Spans) Len() int { return s.sp[3*s.R+2] }

// RowOf returns the row that stores slab position e, 0 ≤ e < Len().
func (s *Spans) RowOf(e int) int {
	return sort.Search(s.R, func(i int) bool { return s.sp[3*i+5] > e })
}

// Walk calls f once for each row that stores some of the slab positions
// [lo, hi): f(i, j0, j1) covers row i's columns j0 … j1-1. A statement
// over the spans runs Walk on each of its ranges. Walk is not defined on
// a Shift view.
func (s *Spans) Walk(lo, hi int, f func(i, j0, j1 int)) {
	for i := s.RowOf(lo); lo < hi; i++ {
		end := min(hi, s.sp[3*i+5])
		if lo < end {
			j0 := s.sp[3*i] + lo - s.sp[3*i+2]
			f(i, j0, j0+end-lo)
			lo = end
		}
	}
}

// Dense is an R×C float64 matrix over the (min,+) semiring, stored by
// row spans (see Spans).
type Dense struct {
	Spans
	v []float64
	// pooled marks a value slab drawn from the workspace arena; released
	// flips on Release so double releases fail loudly.
	pooled   bool
	released bool
}

// New returns a full R×C matrix of zeros.
func New(r, c int) *Dense {
	return &Dense{Spans: makeSpans(r, c, false, func(int) (int, int) { return 0, c - 1 }), v: make([]float64, r*c)}
}

// NewSpan returns an R×C matrix from the workspace arena whose row i
// stores the columns span(i) (clipped to the matrix), all zero; every
// other entry is +∞. Call Release when the matrix is no longer needed;
// forgetting to is safe (the slabs are simply collected) but forfeits
// the reuse.
func NewSpan(r, c int, span func(i int) (lo, hi int)) *Dense {
	s := makeSpans(r, c, true, span)
	return &Dense{Spans: s, v: pool.Float64s(s.Len()), pooled: true}
}

// NewOn returns a zero matrix from the arena laid out on a copy of s: a
// product's value table on its cut table's spans.
func NewOn(s *Spans) *Dense {
	return &Dense{Spans: s.copySpans(), v: pool.Float64s(s.Len()), pooled: true}
}

// Release returns the matrix's slabs to the workspace arena. The matrix
// must not be used afterwards: its storage is dropped, so any access
// panics rather than silently reading recycled memory. Releasing twice
// panics.
func (d *Dense) Release() {
	if d == nil {
		return
	}
	if d.released {
		panic("matrix: double release of Dense")
	}
	d.released = true
	if d.pooled {
		pool.PutFloat64s(d.v)
	}
	d.releaseSpans()
	d.v = nil
}

// NewFull returns a full R×C matrix with every entry set to fill.
func NewFull(r, c int, fill float64) *Dense {
	d := New(r, c)
	for i := range d.v {
		d.v[i] = fill
	}
	return d
}

// NewInf returns an R×C matrix that stores nothing: every entry is the
// semiring's +∞.
func NewInf(r, c int) *Dense { return &Dense{Spans: makeSpans(r, c, false, empty)} }

// FromRows builds a full matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	d := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("matrix: ragged rows")
		}
		copy(d.v[i*c:(i+1)*c], row)
	}
	return d
}

// Trim returns a copy of d from the arena whose row i stores only its
// first through its last finite entry (+∞ entries between them stay
// stored): the one scan that turns dense rows into concave-pipeline
// spans.
func (d *Dense) Trim() *Dense {
	out := NewSpan(d.R, d.C, func(i int) (int, int) {
		lo, hi := d.Span(i)
		for lo <= hi && semiring.IsInf(d.At(i, lo)) {
			lo++
		}
		for hi >= lo && semiring.IsInf(d.At(i, hi)) {
			hi--
		}
		return lo, hi
	})
	for i := 0; i < out.R; i++ {
		lo, _ := out.Span(i)
		for k, row := 0, out.Row(i); k < len(row); k++ {
			row[k] = d.At(i, lo+k)
		}
	}
	return out
}

// Shift returns a view of d moved k ≥ 0 columns right: entry (i, j) of
// the view is d's entry (i, j-k), so the first k columns read +∞ and
// entries pushed past column C-1 drop out. The view only offsets the
// spans: it shares d's slab, must not outlive d and must not be written,
// and its Release returns only its own layout.
func (d *Dense) Shift(k int) *Dense {
	s := d.copySpans()
	for i := 0; i < s.R; i++ {
		lo, hi := s.Span(i)
		if lo <= hi {
			lo, hi = lo+k, min(hi+k, s.C-1)
		}
		if lo > hi {
			lo, hi = s.C, s.C-1
		}
		s.sp[3*i], s.sp[3*i+1] = lo, hi
	}
	return &Dense{Spans: s, v: d.v}
}

// At returns the (i,j) entry.
func (d *Dense) At(i, j int) float64 {
	d.check()
	if p := d.pos(i, j); p >= 0 {
		return d.v[p]
	}
	return semiring.Inf
}

// Set stores v at (i,j), which must lie in row i's span.
func (d *Dense) Set(i, j int, v float64) {
	d.check()
	p := d.pos(i, j)
	if p < 0 {
		panic("matrix: Set outside the row's span")
	}
	d.v[p] = v
}

// Row returns a live view of row i's stored entries (not a copy): entry
// k is column lo+k, where lo is the row's Span.
func (d *Dense) Row(i int) []float64 {
	d.check()
	lo, hi := d.Span(i)
	off := d.sp[3*i+2]
	return d.v[off : off+hi-lo+1]
}

// Slab returns a live view of the whole value slab, rows packed in
// order: entry (i, j) inside row i's span is Slab()[Base(i)+j].
func (d *Dense) Slab() []float64 {
	d.check()
	return d.v
}

// Clone returns a deep copy with the same spans.
func (d *Dense) Clone() *Dense {
	out := &Dense{Spans: makeSpans(d.R, d.C, false, d.Span), v: make([]float64, d.Len())}
	for i := 0; i < d.R; i++ {
		copy(out.Row(i), d.Row(i))
	}
	return out
}

// Equal reports whether d and o have identical shape and entries within eps
// (with equal infinities treated as equal), whatever their spans.
func (d *Dense) Equal(o *Dense, eps float64) bool {
	if d.R != o.R || d.C != o.C {
		return false
	}
	for i := 0; i < d.R; i++ {
		for j := 0; j < d.C; j++ {
			v, w := d.At(i, j), o.At(i, j)
			if v == w {
				continue
			}
			if math.IsInf(v, 1) || math.IsInf(w, 1) {
				return false
			}
			if math.Abs(v-w) > eps && math.Abs(v-w) > eps*math.Max(math.Abs(v), math.Abs(w)) {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging; +∞ prints as "∞".
func (d *Dense) String() string {
	var b strings.Builder
	for i := 0; i < d.R; i++ {
		for j := 0; j < d.C; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			v := d.At(i, j)
			if semiring.IsInf(v) {
				b.WriteString("∞")
			} else {
				fmt.Fprintf(&b, "%g", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// IntMat is an R×C int32 matrix stored by row spans (see Spans), used
// for Cut (argmin) tables: an entry outside its row's span is -1.
type IntMat struct {
	Spans
	v []int32
	// pooled/released: see Dense.
	pooled   bool
	released bool
}

// NewInt returns a full R×C integer matrix of zeros.
func NewInt(r, c int) *IntMat {
	return &IntMat{Spans: makeSpans(r, c, false, func(int) (int, int) { return 0, c - 1 }), v: make([]int32, r*c)}
}

// NewIntFromPool returns a full R×C zero integer matrix backed by the
// workspace arena; see NewSpan for the ownership contract.
func NewIntFromPool(r, c int) *IntMat {
	return NewIntSpan(r, c, func(int) (int, int) { return 0, c - 1 })
}

// NewIntSpan returns an R×C zero integer matrix from the arena whose row
// i stores the columns span(i); every other entry is -1.
func NewIntSpan(r, c int, span func(i int) (lo, hi int)) *IntMat {
	s := makeSpans(r, c, true, span)
	return &IntMat{Spans: s, v: pool.Int32s(s.Len()), pooled: true}
}

// Release returns the cut table's slabs to the arena; the table must not
// be used afterwards. Releasing twice panics.
func (m *IntMat) Release() {
	if m == nil {
		return
	}
	if m.released {
		panic("matrix: double release of IntMat")
	}
	m.released = true
	if m.pooled {
		pool.PutInt32s(m.v)
	}
	m.releaseSpans()
	m.v = nil
}

// At returns the (i,j) entry.
func (m *IntMat) At(i, j int) int {
	m.check()
	if p := m.pos(i, j); p >= 0 {
		return int(m.v[p])
	}
	return -1
}

// Row returns a live view of row i's stored entries; see Dense.Row.
func (m *IntMat) Row(i int) []int32 {
	m.check()
	lo, hi := m.Span(i)
	off := m.sp[3*i+2]
	return m.v[off : off+hi-lo+1]
}

// Set stores v at (i,j), which must lie in row i's span.
func (m *IntMat) Set(i, j, v int) {
	m.check()
	p := m.pos(i, j)
	if p < 0 {
		panic("matrix: Set outside the row's span")
	}
	m.v[p] = int32(v)
}

// Line is one row of a Dense or IntMat taken once for a run of reads and
// writes: At reads column j without the matrix's span lookup, as the
// unstored value (+∞ or -1) outside the row's span, and Piece returns a
// run of the span's columns as a live slice to write. Kernels that visit
// a row piece by piece take its Line once per piece; At/Set stay for
// single entries.
type Line[T float64 | int32] struct {
	lo    int
	v     []T
	unset T
}

// Line returns row i of d as a Line.
func (d *Dense) Line(i int) Line[float64] {
	lo, _ := d.Span(i)
	return Line[float64]{lo, d.Row(i), semiring.Inf}
}

// Line returns row i of m as a Line.
func (m *IntMat) Line(i int) Line[int32] {
	lo, _ := m.Span(i)
	return Line[int32]{lo, m.Row(i), -1}
}

// At returns column j of the row.
func (l Line[T]) At(j int) T {
	if x := j - l.lo; uint(x) < uint(len(l.v)) {
		return l.v[x]
	}
	return l.unset
}

// Piece returns columns j0 … j1-1, which must lie in the row's span.
func (l Line[T]) Piece(j0, j1 int) []T { return l.v[j0-l.lo : j1-l.lo] }

// MulBrute computes the (min,+) product AB by examining every k for every
// output entry: Θ(p·q·r) comparisons. It returns the product and the Cut
// matrix (smallest minimizing k per entry; -1 where every candidate is +∞).
func MulBrute(a, b *Dense, cnt *OpCount) (*Dense, *IntMat) {
	if a.C != b.R {
		panic("matrix: dimension mismatch")
	}
	p, q, r := a.R, a.C, b.C
	out := New(p, r)
	cut := NewInt(p, r)
	for i := 0; i < p; i++ {
		for j := 0; j < r; j++ {
			best, arg := semiring.Inf, -1
			for k := 0; k < q; k++ {
				if s := a.At(i, k) + b.At(k, j); s < best {
					best, arg = s, k
				}
			}
			out.Set(i, j, best)
			cut.Set(i, j, arg)
		}
	}
	cnt.Add(int64(p) * int64(q) * int64(r))
	return out, cut
}

// MulBrutePar computes the (min,+) product on a PRAM: one virtual processor
// per output entry, each scanning all q candidates (the "parallelization of
// dynamic programming" the paper improves upon). Comparisons are still
// Θ(p·q·r); the step count is ⌈pr/P⌉·q-ish under Brent scheduling.
func MulBrutePar(m *pram.Machine, a, b *Dense, cnt *OpCount) (*Dense, *IntMat) {
	if a.C != b.R {
		panic("matrix: dimension mismatch")
	}
	p, q, r := a.R, a.C, b.C
	out := New(p, r)
	cut := NewInt(p, r)
	m.For(p*r, func(e int) {
		i, j := e/r, e%r
		best, arg := semiring.Inf, -1
		for k := 0; k < q; k++ {
			if s := a.At(i, k) + b.At(k, j); s < best {
				best, arg = s, k
			}
		}
		out.Set(i, j, best)
		cut.Set(i, j, arg)
	})
	cnt.Add(int64(p) * int64(q) * int64(r))
	return out, cut
}

// ValueFromCut reconstructs the product value matrix from a Cut table:
// (AB)[i][j] = A[i][k] + B[k][j] with k = Cut[i][j]; entries with cut -1
// are +∞. This is the paper's observation that computing Cut(A,B) suffices,
// since AB follows in O(1) time per entry.
func ValueFromCut(a, b *Dense, cut *IntMat) *Dense {
	out := New(cut.R, cut.C)
	for i := 0; i < cut.R; i++ {
		for j := 0; j < cut.C; j++ {
			v := semiring.Inf
			if k := cut.At(i, j); k >= 0 {
				v = a.At(i, k) + b.At(k, j)
			}
			out.Set(i, j, v)
		}
	}
	return out
}

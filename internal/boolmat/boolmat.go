// Package boolmat provides word-packed Boolean matrices with sequential
// and PRAM-parallel multiplication. It is the M(n) substrate of the
// paper's Section 8: the linear-CFL recognizer combines sub-problem
// reachability matrices with Boolean matrix products, and Theorem 8.1 is
// parameterized by the processor count M(n) of whatever Boolean
// multiplication is plugged in (here: the word-parallel cubic method,
// n³/64 word operations).
package boolmat

import (
	"math/bits"
	"strings"

	"partree/internal/faultpoint"
	"partree/internal/pool"
	"partree/internal/pram"
)

// Matrix is a dense R×C Boolean matrix, rows packed into uint64 words.
type Matrix struct {
	R, C  int
	words int // words per row
	bits  []uint64
	// pooled marks a matrix whose word slab came from the workspace
	// arena; released flips on Release so double releases fail loudly.
	pooled   bool
	released bool
}

// New returns an all-false R×C matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("boolmat: negative dimension")
	}
	w := (c + 63) / 64
	return &Matrix{R: r, C: c, words: w, bits: make([]uint64, r*w)}
}

// Words is the number of words an R×C matrix packs into.
func Words(r, c int) int { return r * ((c + 63) / 64) }

// On returns the R×C matrix stored in the first Words(r, c) words of
// bits: a view into a slab its caller owns (lincfl keeps every region
// matrix of its table, and every combine's intermediates, in one slab).
// Release only drops the view.
func On(r, c int, bits []uint64) Matrix {
	w := (c + 63) / 64
	return Matrix{R: r, C: c, words: w, bits: bits[: r*w : r*w]}
}

// NewFromPool returns an all-false R×C matrix whose word slab is drawn
// from the workspace arena. Call Release when done with it; forgetting
// to is safe (the slab is collected) but forfeits the reuse.
func NewFromPool(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("boolmat: negative dimension")
	}
	w := (c + 63) / 64
	return &Matrix{R: r, C: c, words: w, bits: pool.Uint64s(r * w), pooled: true}
}

// Release returns the matrix's word slab to the arena. The matrix must
// not be used afterwards — its storage is dropped, so any access panics
// instead of silently reading recycled words. Releasing twice panics.
func (m *Matrix) Release() {
	if m == nil {
		return
	}
	if m.released {
		panic("boolmat: double release of Matrix")
	}
	m.released = true
	if m.pooled {
		pool.PutUint64s(m.bits)
	}
	m.bits = nil
}

// Identity returns the n×n identity (pool-backed).
func Identity(n int) *Matrix {
	m := NewFromPool(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, true)
	}
	return m
}

// Get returns entry (i,j).
func (m *Matrix) Get(i, j int) bool {
	m.check()
	return m.bits[i*m.words+j/64]>>(uint(j)%64)&1 == 1
}

// Set assigns entry (i,j).
func (m *Matrix) Set(i, j int, v bool) {
	m.check()
	w := &m.bits[i*m.words+j/64]
	mask := uint64(1) << (uint(j) % 64)
	if v {
		*w |= mask
	} else {
		*w &^= mask
	}
}

// row returns the packed words of row i.
func (m *Matrix) row(i int) []uint64 { m.check(); return m.bits[i*m.words : (i+1)*m.words] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.R, m.C)
	copy(out.bits, m.bits)
	return out
}

// Equal reports whether two matrices have identical shape and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.R != o.R || m.C != o.C {
		return false
	}
	for i, w := range m.bits {
		if w != o.bits[i] {
			return false
		}
	}
	return true
}

// Count returns the number of true entries.
func (m *Matrix) Count() int {
	n := 0
	for _, w := range m.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Or sets m |= o elementwise (shapes must match) and returns m.
func (m *Matrix) Or(o *Matrix) *Matrix {
	if m.R != o.R || m.C != o.C {
		panic("boolmat: shape mismatch")
	}
	for i := range m.bits {
		m.bits[i] |= o.bits[i]
	}
	return m
}

// OrRows ORs the n consecutive rows of src starting at row si into the n
// rows of m starting at row di (column counts must match): one contiguous
// word range, since rows are packed back to back.
func (m *Matrix) OrRows(di int, src *Matrix, si, n int) {
	if m.C != src.C {
		panic("boolmat: shape mismatch")
	}
	m.check()
	src.check()
	dst := m.bits[di*m.words : (di+n)*m.words]
	for x, w := range src.bits[si*src.words : (si+n)*src.words] {
		dst[x] |= w
	}
}

// OrBits ORs the n bits of src's row si starting at column sc into m's
// row di starting at column dc, one destination word per iteration: each
// is filled from the (at most two) source words its bits straddle. When
// both matrices' rows are one word each, the range is one shift and one
// mask of that word: on such rows, as lincfl's small regions have, the
// loop's slicing and word arithmetic would cost more than the bits moved.
func (m *Matrix) OrBits(di, dc int, src *Matrix, si, sc, n int) {
	if dc < 0 || sc < 0 || n < 0 || dc+n > m.C || sc+n > src.C {
		panic("boolmat: bit range out of bounds")
	}
	if m.words == 1 && src.words == 1 {
		m.check()
		src.check()
		m.bits[di] |= (src.bits[si] >> uint(sc) & (^uint64(0) >> uint(64-n))) << uint(dc)
		return
	}
	drow, srow := m.row(di), src.row(si)
	for n > 0 {
		db := uint(dc & 63)
		c := 64 - int(db) // bits left in this destination word
		if c > n {
			c = n
		}
		sw, sb := sc>>6, uint(sc&63)
		v := srow[sw] >> sb
		if sb != 0 && sw+1 < len(srow) {
			v |= srow[sw+1] << (64 - sb)
		}
		drow[dc>>6] |= (v & (^uint64(0) >> uint(64-c))) << db
		dc, sc, n = dc+c, sc+c, n-c
	}
}

// kTileBytes is the blocked multiply's cache budget: bytes of B rows
// kept resident per k-tile.
const kTileBytes = 1 << 18

// mulKTile picks the k-tile height for the blocked kernel: the number of
// B rows (a multiple of 64, so tiles stay word-aligned in A's rows) whose
// packed words fit budget bytes. B's rows are its packed
// columns-of-words layout, built once at Set time, so a tile is a
// contiguous, reusable byte range of b.bits.
func mulKTile(words, budget int) int {
	kt := budget / (words * 8)
	kt &^= 63
	if kt < 64 {
		kt = 64
	}
	return kt
}

// KTileRows is the k-tile height MulInto uses for a right operand with c
// columns: a product whose inner dimension exceeds it walks A's columns
// in several k-tiles.
func KTileRows(c int) int { return mulKTile((c+63)/64, kTileBytes) }

// mulRowInto ORs into orow every B row selected by the set bits of
// arow's words [w0, w1). Zero words are skipped whole; set bits are
// found with trailing-zero scans instead of per-bit probes.
func mulRowInto(orow, arow []uint64, b *Matrix, w0, w1 int) {
	for w := w0; w < w1; w++ {
		bitsW := arow[w]
		for bitsW != 0 {
			k := w<<6 + bits.TrailingZeros64(bitsW)
			bitsW &= bitsW - 1
			brow := b.row(k)
			for x := range orow {
				orow[x] |= brow[x]
			}
		}
	}
}

// Mul returns the Boolean product a·b: out[i][j] = ∨ₖ a[i][k] ∧ b[k][j],
// computed by MulInto into a matrix whose slab comes from the workspace
// arena (Release it to recycle).
func Mul(a, b *Matrix) *Matrix {
	out := NewFromPool(a.R, b.C)
	MulInto(out, a, b)
	return out
}

// MulInto ORs the Boolean product a·b into out, which must be a.R×b.C
// (all false for out = a·b), computed row-wise with word-level
// parallelism (n³/64 word-ORs in the dense model). The kernel is
// cache-blocked: A's columns are walked in word-aligned k-tiles sized so
// the touched band of B stays resident across all rows of A, and zero
// words of A are skipped entirely. When the rows of a and b are one word
// each (at most 64 columns), a row of the product is the OR of the words
// of b its one word selects, gathered straight into out's word: B fits
// in cache whole, so there is nothing to tile, and the blocked kernel's
// per-row slicing would cost more than the ORs.
func MulInto(out, a, b *Matrix) { mulInto(out, a, b, kTileBytes) }

// mulInto is MulInto with k-tiles sized to budget bytes of B rows.
func mulInto(out, a, b *Matrix, budget int) {
	if a.C != b.R || out.R != a.R || out.C != b.C {
		panic("boolmat: dimension mismatch")
	}
	if a.C == 0 || b.C == 0 {
		return
	}
	if a.words == 1 && b.words == 1 {
		out.check()
		a.check()
		b.check()
		brows := b.bits[:b.R]
		for i, w := range a.bits[:a.R] {
			var acc uint64
			for ; w != 0; w &= w - 1 {
				acc |= brows[bits.TrailingZeros64(w)]
			}
			out.bits[i] |= acc
		}
		return
	}
	kt := mulKTile(b.words, budget)
	for k0 := 0; k0 < a.C; k0 += kt {
		k1 := k0 + kt
		if k1 > a.C {
			k1 = a.C
		}
		w0, w1 := k0>>6, (k1+63)>>6
		for i := 0; i < a.R; i++ {
			mulRowInto(out.row(i), a.row(i), b, w0, w1)
		}
	}
}

// MulPar is the PRAM form of Mul: one virtual processor per output row.
// Each row body uses the word-skipping scan; cross-row B reuse comes from
// the runtime handing each worker contiguous row chunks.
func MulPar(m *pram.Machine, a, b *Matrix) *Matrix {
	if a.C != b.R {
		panic("boolmat: dimension mismatch")
	}
	defer m.Phase("boolmat.MulPar")()
	out := NewFromPool(a.R, b.C)
	if a.C == 0 || b.C == 0 {
		return out
	}
	// A cancellation abort inside the For must hand the output slab back
	// to the arena on its way up the stack.
	defer func() {
		if rec := recover(); rec != nil {
			out.Release()
			panic(rec)
		}
	}()
	faultpoint.Hit("boolmat.mulpar")
	aw := (a.C + 63) >> 6
	m.For(a.R, func(i int) {
		mulRowInto(out.row(i), a.row(i), b, 0, aw)
	})
	return out
}

// Closure returns the reflexive-transitive closure of a square matrix by
// ⌈log₂ n⌉ squarings of (I ∨ m), recycling each intermediate square.
func Closure(m *Matrix) *Matrix {
	if m.R != m.C {
		panic("boolmat: closure of non-square matrix")
	}
	id := Identity(m.R)
	cur := m.Clone().Or(id)
	id.Release()
	for span := 1; span < m.R; span <<= 1 {
		next := Mul(cur, cur)
		cur.Release()
		cur = next
	}
	return cur
}

// ClosurePar is Closure with every squaring performed on the PRAM:
// ⌈log₂ n⌉ parallel products.
func ClosurePar(mach *pram.Machine, m *Matrix) *Matrix {
	if m.R != m.C {
		panic("boolmat: closure of non-square matrix")
	}
	defer mach.Phase("boolmat.ClosurePar")()
	id := Identity(m.R)
	cur := m.Clone().Or(id)
	id.Release()
	// cur is a GC'd Clone before the first squaring and a pooled MulPar
	// product afterwards; Release handles both, and MulPar releases its
	// own output when the abort happens inside it.
	defer func() {
		if rec := recover(); rec != nil {
			cur.Release()
			panic(rec)
		}
	}()
	for span := 1; span < m.R; span <<= 1 {
		next := MulPar(mach, cur, cur)
		cur.Release()
		cur = next
	}
	return cur
}

// String renders the matrix as rows of 0/1 for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			if m.Get(i, j) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

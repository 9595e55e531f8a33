package matrix

import (
	"math/rand"
	"testing"

	"partree/internal/semiring"
)

func randMat(rng *rand.Rand, r, c int) *Dense {
	d := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			d.Set(i, j, float64(rng.Intn(100)))
		}
	}
	return d
}

func TestNewAndAccessors(t *testing.T) {
	d := New(2, 3)
	if d.R != 2 || d.C != 3 {
		t.Fatal("shape wrong")
	}
	d.Set(1, 2, 5)
	if d.At(1, 2) != 5 || d.At(0, 0) != 0 {
		t.Error("Set/At wrong")
	}
	row := d.Row(1)
	row[0] = 9
	if d.At(1, 0) != 9 {
		t.Error("Row must be a live view")
	}
}

func TestNewFullAndInf(t *testing.T) {
	d := NewFull(2, 2, 3.5)
	if d.At(0, 0) != 3.5 || d.At(1, 1) != 3.5 {
		t.Error("NewFull wrong")
	}
	inf := NewInf(2, 2)
	if !semiring.IsInf(inf.At(0, 1)) {
		t.Error("NewInf wrong")
	}
}

func TestFromRowsAndClone(t *testing.T) {
	d := FromRows([][]float64{{1, 2}, {3, 4}})
	if d.At(1, 0) != 3 {
		t.Error("FromRows wrong")
	}
	c := d.Clone()
	c.Set(0, 0, 100)
	if d.At(0, 0) != 1 {
		t.Error("Clone must deep copy")
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged rows should panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestEqual(t *testing.T) {
	a := FromRows([][]float64{{1, semiring.Inf}, {3, 4}})
	b := a.Clone()
	if !a.Equal(b, 0) {
		t.Error("identical matrices must be Equal")
	}
	b.Set(1, 1, 4+1e-12)
	if !a.Equal(b, 1e-9) {
		t.Error("tiny difference within eps must be Equal")
	}
	b.Set(0, 1, 5) // Inf vs finite
	if a.Equal(b, 1e-9) {
		t.Error("Inf vs finite must not be Equal")
	}
	if a.Equal(New(2, 3), 0) {
		t.Error("shape mismatch must not be Equal")
	}
}

func TestMulBruteSmallKnown(t *testing.T) {
	// (min,+) product worked by hand.
	a := FromRows([][]float64{
		{1, 5},
		{2, semiring.Inf},
	})
	b := FromRows([][]float64{
		{0, 10},
		{3, 1},
	})
	var cnt OpCount
	p, cut := MulBrute(a, b, &cnt)
	// p[0][0] = min(1+0, 5+3) = 1 (k=0); p[0][1] = min(1+10, 5+1) = 6 (k=1)
	// p[1][0] = min(2+0, ∞+3) = 2 (k=0); p[1][1] = min(2+10, ∞) = 12 (k=0)
	want := FromRows([][]float64{{1, 6}, {2, 12}})
	if !p.Equal(want, 0) {
		t.Fatalf("product =\n%v want\n%v", p, want)
	}
	if cut.At(0, 0) != 0 || cut.At(0, 1) != 1 || cut.At(1, 1) != 0 {
		t.Errorf("cut wrong: %v %v %v", cut.At(0, 0), cut.At(0, 1), cut.At(1, 1))
	}
	if cnt.Load() != 8 {
		t.Errorf("comparisons = %d, want 2*2*2 = 8", cnt.Load())
	}
}

func TestMulBruteAllInfGivesCutMinusOne(t *testing.T) {
	a := NewInf(2, 2)
	b := NewInf(2, 2)
	var cnt OpCount
	p, cut := MulBrute(a, b, &cnt)
	if !semiring.IsInf(p.At(0, 0)) || cut.At(0, 0) != -1 {
		t.Error("all-∞ product must be ∞ with cut -1")
	}
}

func TestMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randMat(rng, 4, 5)
	b := randMat(rng, 5, 6)
	c := randMat(rng, 6, 3)
	var cnt OpCount
	ab, _ := MulBrute(a, b, &cnt)
	abc1, _ := MulBrute(ab, c, &cnt)
	bc, _ := MulBrute(b, c, &cnt)
	abc2, _ := MulBrute(a, bc, &cnt)
	if !abc1.Equal(abc2, 1e-9) {
		t.Error("(min,+) product must be associative")
	}
}

func TestValueFromCut(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 6, 7)
	b := randMat(rng, 7, 4)
	var cnt OpCount
	p, cut := MulBrute(a, b, &cnt)
	if got := ValueFromCut(a, b, cut); !got.Equal(p, 0) {
		t.Error("ValueFromCut must reconstruct the product")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	var cnt OpCount
	MulBrute(New(2, 3), New(4, 2), &cnt)
}

func TestOpCountNilSafe(t *testing.T) {
	var c *OpCount
	c.Add(5) // must not panic
	if c.Load() != 0 {
		t.Error("nil OpCount should load 0")
	}
	c.Reset()
	var real OpCount
	real.Add(3)
	real.Add(4)
	if real.Load() != 7 {
		t.Error("OpCount arithmetic wrong")
	}
	real.Reset()
	if real.Load() != 0 {
		t.Error("Reset failed")
	}
}

func TestIntMat(t *testing.T) {
	m := NewInt(2, 2)
	m.Set(0, 1, 42)
	m.Set(1, 0, -1)
	if m.At(0, 1) != 42 || m.At(1, 0) != -1 || m.At(0, 0) != 0 {
		t.Error("IntMat wrong")
	}
}

func TestStringRendering(t *testing.T) {
	d := FromRows([][]float64{{1, semiring.Inf}})
	if s := d.String(); s != "1 ∞\n" {
		t.Errorf("String() = %q", s)
	}
}

// randomSpans draws r row spans over c columns: intervals, some empty,
// some running past either edge (NewSpan clips them).
func randomSpans(rng *rand.Rand, r, c int) [][2]int {
	s := make([][2]int, r)
	for i := range s {
		lo := rng.Intn(c+4) - 2
		s[i] = [2]int{lo, lo + rng.Intn(c+2) - 1}
	}
	return s
}

// TestSpanLayout checks the span layout against its definition on random
// shapes up to 64×64: each row stores exactly its clipped span, the
// stored entries are packed row after row (RowOf and Walk agree with an
// enumeration), entries outside a span read +∞ / -1, and writing one
// panics.
func TestSpanLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		r, c := rng.Intn(65), 1+rng.Intn(64)
		spans := randomSpans(rng, r, c)
		span := func(i int) (int, int) { return spans[i][0], spans[i][1] }
		d, m := NewSpan(r, c, span), NewIntSpan(r, c, span)
		e := 0
		for i := 0; i < r; i++ {
			lo, hi := max(spans[i][0], 0), min(spans[i][1], c-1)
			if glo, ghi := d.Span(i); lo <= hi && (glo != lo || ghi != hi) || lo > hi && glo <= ghi {
				t.Fatalf("trial %d row %d: span [%d,%d], want [%d,%d]", trial, i, glo, ghi, lo, hi)
			}
			if len(d.Row(i)) != max(0, hi-lo+1) {
				t.Fatalf("trial %d row %d: %d stored entries, span holds %d", trial, i, len(d.Row(i)), max(0, hi-lo+1))
			}
			for j := 0; j < c; j++ {
				if j < lo || j > hi {
					if !semiring.IsInf(d.At(i, j)) || m.At(i, j) != -1 || !semiring.IsInf(d.Line(i).At(j)) || m.Line(i).At(j) != -1 {
						t.Fatalf("trial %d (%d,%d): outside the span reads %v / %d", trial, i, j, d.At(i, j), m.At(i, j))
					}
					continue
				}
				d.Line(i).Piece(j, j+1)[0] = float64(e)
				m.Line(i).Piece(j, j+1)[0] = int32(e)
				if d.At(i, j) != float64(e) || m.At(i, j) != e || d.Line(i).At(j) != float64(e) ||
					m.Line(i).At(j) != int32(e) || d.Slab()[d.Base(i)+j] != float64(e) {
					t.Fatalf("trial %d (%d,%d): wrote %d through a Line, read %v / %d", trial, i, j, e, d.At(i, j), m.At(i, j))
				}
				wi, wj := -1, -1
				d.Walk(e, e+1, func(i, j0, _ int) { wi, wj = i, j0 })
				if d.RowOf(e) != i || wi != i || wj != j {
					t.Fatalf("trial %d: position %d maps to row %d (walk %d,%d), want (%d,%d)", trial, e, d.RowOf(e), wi, wj, i, j)
				}
				e++
			}
		}
		if d.Len() != e || m.Len() != e {
			t.Fatalf("trial %d: Len %d/%d, spans hold %d", trial, d.Len(), m.Len(), e)
		}
		// A random range walks its positions in order, once each.
		lo := rng.Intn(e + 1)
		hi := lo + rng.Intn(e-lo+1)
		next := lo
		d.Walk(lo, hi, func(i, j0, j1 int) {
			for j := j0; j < j1; j, next = j+1, next+1 {
				if d.At(i, j) != float64(next) || m.At(i, j) != next {
					t.Fatalf("trial %d: walk of [%d,%d) reached (%d,%d) = %v at position %d", trial, lo, hi, i, j, d.At(i, j), next)
				}
			}
		})
		if next != hi {
			t.Fatalf("trial %d: walk of [%d,%d) stopped at %d", trial, lo, hi, next)
		}
		if on := NewOn(&m.Spans); on.Len() != e || !sameSpans(on, d) {
			t.Fatalf("trial %d: NewOn did not copy the layout", trial)
		} else {
			on.Release()
		}
		d.Release()
		m.Release()
	}
	mustPanic(t, "Set outside a span", func() { NewSpan(2, 4, func(int) (int, int) { return 1, 2 }).Set(0, 3, 1) })
	mustPanic(t, "IntMat Set outside a span", func() { NewIntSpan(2, 4, func(int) (int, int) { return 1, 2 }).Set(1, 0, 1) })
}

func sameSpans(a, b *Dense) bool {
	for i := 0; i < a.R; i++ {
		alo, ahi := a.Span(i)
		blo, bhi := b.Span(i)
		if alo != blo || ahi != bhi {
			return false
		}
	}
	return a.R == b.R && a.C == b.C
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

// TestTrimAndShift checks the two span conversions against dense rows:
// Trim keeps every entry and stores exactly each row's first through
// last finite entry; Shift(k) reads E's column j-k at column j and drops
// what leaves the matrix, sharing the slab.
func TestTrimAndShift(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 200; trial++ {
		r, c := 1+rng.Intn(64), 1+rng.Intn(64)
		d := New(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if rng.Intn(3) > 0 {
					d.Set(i, j, semiring.Inf)
				} else {
					d.Set(i, j, float64(rng.Intn(100)))
				}
			}
		}
		tr := d.Trim()
		if !tr.Equal(d, 0) {
			t.Fatalf("trial %d: Trim changed an entry", trial)
		}
		for i := 0; i < r; i++ {
			lo, hi := tr.Span(i)
			for j := 0; j < c; j++ {
				finite := !semiring.IsInf(d.At(i, j))
				if finite && (j < lo || j > hi) || lo <= hi && (j == lo || j == hi) && !finite {
					t.Fatalf("trial %d row %d: span [%d,%d] does not end on finite entries", trial, i, lo, hi)
				}
			}
		}
		k := rng.Intn(3)
		sh := tr.Shift(k)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				want := semiring.Inf
				if j >= k {
					want = d.At(i, j-k)
				}
				if got := sh.At(i, j); got != want {
					t.Fatalf("trial %d: Shift(%d) at (%d,%d) = %v, want %v", trial, k, i, j, got, want)
				}
				if lo, hi := sh.Span(i); j >= lo && j <= hi && sh.Slab()[sh.Base(i)+j] != want {
					t.Fatalf("trial %d: Shift(%d) slab read at (%d,%d) = %v, want %v", trial, k, i, j, sh.Slab()[sh.Base(i)+j], want)
				}
			}
		}
		sh.Release()
		tr.Release()
	}
}

// TestStaircase checks the layout predicate the concave product's
// unchecked reads rest on: non-empty rows contiguous, both span ends
// nondecreasing over them.
func TestStaircase(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans [][2]int
		want  bool
	}{
		{"no rows", nil, true},
		{"all empty", [][2]int{{1, 0}, {1, 0}}, true},
		{"full", [][2]int{{0, 5}, {0, 5}, {0, 5}}, true},
		{"band", [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 0}}, true},
		{"empty rows around", [][2]int{{1, 0}, {0, 1}, {0, 3}, {1, 0}, {1, 0}}, true},
		{"empty row between", [][2]int{{0, 1}, {1, 0}, {2, 3}}, false},
		{"lo falls", [][2]int{{2, 3}, {1, 4}}, false},
		{"hi falls", [][2]int{{0, 4}, {1, 3}}, false},
	} {
		s := makeSpans(len(tc.spans), 6, false, func(i int) (int, int) { return tc.spans[i][0], tc.spans[i][1] })
		if got := s.Staircase(); got != tc.want {
			t.Errorf("%s: Staircase() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

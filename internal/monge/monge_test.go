package monge

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"partree/internal/matrix"
	"partree/internal/pram"
	"partree/internal/semiring"
	"partree/internal/tune"
)

func TestIsConcaveKnown(t *testing.T) {
	// M[i][j] = (i-j)² is convex (violates concavity for n ≥ 3... check);
	// M[i][j] = i*j is concave? quadrangle: ij + (i+1)(j+1) ≤ i(j+1) + (i+1)j
	// ⇔ ij+ij+i+j+1 ≤ ij+i+ij+j ⇔ 1 ≤ 0: false. So i*j violates.
	// M[i][j] = -(i*j) satisfies with slack 1.
	n := 6
	neg := matrix.New(n, n)
	pos := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			neg.Set(i, j, float64(-i*j))
			pos.Set(i, j, float64(i*j))
		}
	}
	if !IsConcave(neg) {
		t.Errorf("-i*j must be concave: %v", Violations(neg))
	}
	if IsConcave(pos) {
		t.Error("i*j must not be concave")
	}
	if v := Violations(pos); v == nil || v.String() == "" {
		t.Error("Violations must describe the failure")
	}
}

func TestIsConcaveConstantAndSingle(t *testing.T) {
	if !IsConcave(matrix.NewFull(4, 4, 7)) {
		t.Error("constant matrix is concave")
	}
	if !IsConcave(matrix.New(1, 5)) || !IsConcave(matrix.New(5, 1)) {
		t.Error("single row/column matrices are trivially concave")
	}
}

func TestRandomIsConcave(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		r, c := 1+rng.Intn(30), 1+rng.Intn(30)
		d := Random(rng, r, c, 50, 5)
		if v := Violations(d); v != nil {
			t.Fatalf("Random(%d,%d) not concave: %v", r, c, v)
		}
	}
}

func TestRandomUpperTriangularIsConcave(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(25)
		d := RandomUpperTriangular(rng, n, 50, 4)
		if v := Violations(d); v != nil {
			t.Fatalf("RandomUpperTriangular(%d) not concave: %v", n, v)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if !semiring.IsInf(d.At(i, j)) {
					t.Fatalf("lower triangle must be ∞ at (%d,%d)", i, j)
				}
			}
		}
	}
}

// Lemma 5.1 context: concave matrices are closed under (min,+) product.
func TestProductOfConcaveIsConcave(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var cnt matrix.OpCount
	for trial := 0; trial < 20; trial++ {
		p, q, r := 2+rng.Intn(12), 2+rng.Intn(12), 2+rng.Intn(12)
		a := Random(rng, p, q, 40, 3)
		b := Random(rng, q, r, 40, 3)
		prod, _ := matrix.MulBrute(a, b, &cnt)
		if v := Violations(prod); v != nil {
			t.Fatalf("product of concave not concave: %v", v)
		}
	}
}

// The cut matrix of a product of concave matrices is monotone in both
// directions (the paper's "mononicity property").
func TestCutMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var cnt matrix.OpCount
	for trial := 0; trial < 20; trial++ {
		p, q, r := 2+rng.Intn(15), 2+rng.Intn(15), 2+rng.Intn(15)
		a := Random(rng, p, q, 40, 3)
		b := Random(rng, q, r, 40, 3)
		_, cut := matrix.MulBrute(a, b, &cnt)
		for i := 0; i < p; i++ {
			for j := 0; j < r; j++ {
				if i+1 < p && cut.At(i, j) > cut.At(i+1, j) {
					t.Fatalf("row monotonicity violated at (%d,%d)", i, j)
				}
				if j+1 < r && cut.At(i, j) > cut.At(i, j+1) {
					t.Fatalf("column monotonicity violated at (%d,%d)", i, j)
				}
			}
		}
	}
}

func randomPair(rng *rand.Rand, p, q, r int) (*matrix.Dense, *matrix.Dense) {
	return Random(rng, p, q, 60, 4), Random(rng, q, r, 60, 4)
}

func TestCutRecursiveMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		p, q, r := 1+rng.Intn(33), 1+rng.Intn(33), 1+rng.Intn(33)
		a, b := randomPair(rng, p, q, r)
		var c1, c2 matrix.OpCount
		want, wantCut := matrix.MulBrute(a, b, &c1)
		cut := CutRecursive(a, b, &c2)
		got := matrix.ValueFromCut(a, b, cut)
		if !got.Equal(want, 1e-9) {
			t.Fatalf("trial %d dims (%d,%d,%d): values differ", trial, p, q, r)
		}
		for i := 0; i < p; i++ {
			for j := 0; j < r; j++ {
				if cut.At(i, j) != wantCut.At(i, j) {
					t.Fatalf("trial %d: cut differs at (%d,%d): %d vs %d",
						trial, i, j, cut.At(i, j), wantCut.At(i, j))
				}
			}
		}
	}
}

func TestCutRecursiveUpperTriangular(t *testing.T) {
	// The bordered (∞-padded) shape the Huffman DP actually multiplies.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(30)
		a := RandomUpperTriangular(rng, n, 60, 4)
		b := RandomUpperTriangular(rng, n, 60, 4)
		var c1, c2 matrix.OpCount
		want, _ := matrix.MulBrute(a, b, &c1)
		got := matrix.ValueFromCut(a, b, CutRecursive(a, b, &c2))
		if !got.Equal(want, 1e-9) {
			t.Fatalf("trial %d n=%d: ∞-padded values differ", trial, n)
		}
	}
}

func TestCutBottomUpMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		p, q, r := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		a, b := randomPair(rng, p, q, r)
		var c1, c2 matrix.OpCount
		want, wantCut := matrix.MulBrute(a, b, &c1)
		cut := CutBottomUp(a, b, &c2)
		got := matrix.ValueFromCut(a, b, cut)
		if !got.Equal(want, 1e-9) {
			t.Fatalf("trial %d dims (%d,%d,%d): values differ", trial, p, q, r)
		}
		for i := 0; i < p; i++ {
			for j := 0; j < r; j++ {
				if cut.At(i, j) != wantCut.At(i, j) {
					t.Fatalf("trial %d: cut differs at (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

func TestCutBottomUpUpperTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(30)
		a := RandomUpperTriangular(rng, n, 60, 4)
		b := RandomUpperTriangular(rng, n, 60, 4)
		var c1, c2 matrix.OpCount
		want, _ := matrix.MulBrute(a, b, &c1)
		got := matrix.ValueFromCut(a, b, CutBottomUp(a, b, &c2))
		if !got.Equal(want, 1e-9) {
			t.Fatalf("trial %d n=%d: ∞-padded values differ", trial, n)
		}
	}
}

// Theorem 4.1's work claim, measured: the concave algorithms use O(n²)
// comparisons where brute force uses n³. At n=128 the gap must exceed 8×
// and the concave count must stay within a constant multiple of n².
func TestConcaveComparisonBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 128
	a, b := randomPair(rng, n, n, n)
	var brute, rec, bot matrix.OpCount
	matrix.MulBrute(a, b, &brute)
	CutRecursive(a, b, &rec)
	CutBottomUp(a, b, &bot)
	n2 := int64(n) * int64(n)
	if rec.Load() > 20*n2 {
		t.Errorf("recursive comparisons %d exceed 20·n² = %d", rec.Load(), 20*n2)
	}
	if bot.Load() > 20*n2 {
		t.Errorf("bottom-up comparisons %d exceed 20·n² = %d", bot.Load(), 20*n2)
	}
	if brute.Load() < 8*rec.Load() {
		t.Errorf("brute %d should dwarf recursive %d at n=%d", brute.Load(), rec.Load(), n)
	}
}

// Property (quick form): the (min,+) product of random concave matrices is
// concave and its brute cut matches the §4.1 cut exactly.
func TestConcaveClosureQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, q, r := 2+rng.Intn(12), 2+rng.Intn(12), 2+rng.Intn(12)
		a := Random(rng, p, q, 30, 3)
		b := Random(rng, q, r, 30, 3)
		var c1, c2 matrix.OpCount
		prod, wantCut := matrix.MulBrute(a, b, &c1)
		if !IsConcave(prod) {
			return false
		}
		cut := CutRecursive(a, b, &c2)
		for i := 0; i < p; i++ {
			for j := 0; j < r; j++ {
				if cut.At(i, j) != wantCut.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Extreme aspect ratios: row vectors, column vectors and thin rectangles
// must all match brute force through every algorithm.
func TestCutExtremeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	shapes := [][3]int{
		{1, 17, 23}, {23, 17, 1}, {1, 1, 1}, {2, 1, 2}, {40, 3, 2}, {3, 40, 3}, {1, 40, 1},
	}
	for _, s := range shapes {
		a, b := randomPair(rng, s[0], s[1], s[2])
		var c0, c1, c2, c3 matrix.OpCount
		want, _ := matrix.MulBrute(a, b, &c0)
		for name, cut := range map[string]*matrix.IntMat{
			"recursive": CutRecursive(a, b, &c1),
			"bottomup":  CutBottomUp(a, b, &c2),
			"smawk":     CutSMAWK(a, b, &c3),
		} {
			got := matrix.ValueFromCut(a, b, cut)
			if !got.Equal(want, 1e-9) {
				t.Fatalf("%s: shape %v values differ", name, s)
			}
		}
	}
}

// band restricts d to the band lo ≤ j-i ≤ hi, +∞ elsewhere: the shape of
// the Huffman DP's A_h (finite on 1 ≤ j-i ≤ 2^h). A band restriction of a
// Monge matrix stays Monge, for the same reason as RandomUpperTriangular
// (the upper triangle is the band 1 ≤ j-i < C). The result stores the
// band's finite entries, found by Trim.
func band(d *matrix.Dense, lo, hi int) *matrix.Dense {
	return trimmed(d.R, d.C, func(i, j int) float64 {
		if j-i < lo || j-i > hi {
			return semiring.Inf
		}
		return d.At(i, j)
	})
}

// trimmed builds the r×c matrix with entries f(i, j) as dense rows and
// returns it with the spans Trim scans from them.
func trimmed(r, c int, f func(i, j int) float64) *matrix.Dense {
	d := matrix.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			d.Set(i, j, f(i, j))
		}
	}
	return d.Trim()
}

func randomBand(rng *rand.Rand, r, c, lo, hi int) *matrix.Dense {
	return band(Random(rng, r, c, 60, 4), lo, hi)
}

// shiftRight returns shift(E): column k holds E's column k-1, column 0 is
// +∞. obst's height-bounded DP multiplies shift(E) ⋆ E for an upper
// triangular E with a finite diagonal.
func shiftRight(e *matrix.Dense) *matrix.Dense {
	return trimmed(e.R, e.C, func(i, k int) float64 {
		if k == 0 {
			return semiring.Inf
		}
		return e.At(i, k-1)
	})
}

// infShapedPair draws one operand pair of the given ∞-padded shape:
// "triangle" (the path matrix M′), "band" (A_h ⋆ A_h), "rect-band"
// (rectangular bands with independent offsets, negative ones included)
// or "shifted" (obst's shift(E) ⋆ E).
func infShapedPair(rng *rand.Rand, shape string) (*matrix.Dense, *matrix.Dense) {
	n := 2 + rng.Intn(40)
	switch shape {
	case "triangle":
		return RandomUpperTriangular(rng, n, 60, 4), RandomUpperTriangular(rng, n, 60, 4)
	case "band":
		w := 1 + rng.Intn(n)
		return randomBand(rng, n, n, 1, w), randomBand(rng, n, n, 1, w)
	case "rect-band":
		p, q, r := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		lo1, lo2 := rng.Intn(11)-5, rng.Intn(11)-5
		return randomBand(rng, p, q, lo1, lo1+rng.Intn(12)), randomBand(rng, q, r, lo2, lo2+rng.Intn(12))
	case "shifted":
		e := randomBand(rng, n, n, 0, n)
		return shiftRight(e), e
	}
	panic("unknown shape " + shape)
}

// sameCut reports the first entry where two cut tables differ.
func sameCut(t *testing.T, what string, got, want *matrix.IntMat) {
	t.Helper()
	for i := 0; i < want.R; i++ {
		for j := 0; j < want.C; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: cut differs at (%d,%d): %d vs brute %d",
					what, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestDifferentialMulParVsBrute is the parallel path's differential
// oracle: for seeded random Monge operands — rectangular, and every
// ∞-padded shape the Huffman and BST DPs multiply — the serial and
// parallel recursions (the latter with its serial cutover off and
// forced) and MulPar must reproduce the naive O(pqr) product exactly,
// values and cut matrix both.
func TestDifferentialMulParVsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := pram.New(pram.WithWorkers(4), pram.WithGrain(8))
	check := func(what string, a, b *matrix.Dense) {
		t.Helper()
		var c1, c2 matrix.OpCount
		want, wantCut := matrix.MulBrute(a, b, &c1)
		sameCut(t, what+" CutRecursive", CutRecursive(a, b, &c2), wantCut)
		sameCut(t, what+" CutRecursivePar", CutRecursivePar(m, a, b, &c2), wantCut)
		prof := tune.Defaults()
		prof.Tuned.MongeSerialEntries = 1 << 20
		tune.SetActive(prof)
		forced := CutRecursivePar(m, a, b, &c2)
		tune.SetActive(nil)
		sameCut(t, what+" CutRecursivePar (serial cutover)", forced, wantCut)
		got, gotCut := MulPar(m, a, b, &c2)
		if !got.Equal(want, 0) {
			t.Fatalf("%s: parallel values differ from brute", what)
		}
		sameCut(t, what+" MulPar", gotCut, wantCut)
	}
	for trial := 0; trial < 30; trial++ {
		p, q, r := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		a, b := randomPair(rng, p, q, r)
		check(fmt.Sprintf("trial %d dims (%d,%d,%d)", trial, p, q, r), a, b)
	}
	for _, shape := range []string{"triangle", "band", "rect-band", "shifted"} {
		for trial := 0; trial < 15; trial++ {
			a, b := infShapedPair(rng, shape)
			check(fmt.Sprintf("%s trial %d dims (%d,%d,%d)", shape, trial, a.R, a.C, b.C), a, b)
		}
	}
}

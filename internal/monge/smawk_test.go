package monge

import (
	"math/rand"
	"testing"

	"partree/internal/matrix"
	"partree/internal/pram"
)

func TestRowMinimaSimple(t *testing.T) {
	// f(i,k) = |k - i| + small slope: totally monotone (it is a translate
	// of a convex function... use the Monge matrix -(i*k) shifted instead).
	// Use d(i,k) = (k-i)²: this is a Monge ("convex") matrix for which row
	// minima sit at k=i. (Quadrangle: (k-i)²+(k+1-i-1)² ≤ (k+1-i)²+(k-i-1)²
	// ⇔ 0 ≤ 2, holds — so it is concave in the paper's sense.)
	n := 9
	var cnt matrix.OpCount
	mins := RowMinima(n, n, func(i, k int) float64 {
		d := float64(k - i)
		return d * d
	}, &cnt)
	for i, k := range mins {
		if k != i {
			t.Errorf("row %d argmin = %d, want %d", i, k, i)
		}
	}
}

func TestRowMinimaMatchesBruteOnRandomMonge(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		p, q := 1+rng.Intn(40), 1+rng.Intn(40)
		d := Random(rng, p, q, 60, 4)
		var cnt matrix.OpCount
		mins := RowMinima(p, q, d.At, &cnt)
		for i := 0; i < p; i++ {
			bestV, bestK := d.At(i, 0), 0
			for k := 1; k < q; k++ {
				if d.At(i, k) < bestV {
					bestV, bestK = d.At(i, k), k
				}
			}
			if mins[i] < 0 || d.At(i, mins[i]) != bestV {
				t.Fatalf("trial %d row %d: SMAWK value %v, want %v", trial, i,
					d.At(i, mins[i]), bestV)
			}
			_ = bestK
		}
	}
}

func TestRowMinimaLinearWork(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n := 1024
	d := Random(rng, n, n, 60, 4)
	var cnt matrix.OpCount
	RowMinima(n, n, d.At, &cnt)
	if cnt.Load() > int64(16*n) {
		t.Errorf("SMAWK used %d evaluations for n=%d, want O(n)", cnt.Load(), n)
	}
}

func TestRowMinimaDegenerate(t *testing.T) {
	var cnt matrix.OpCount
	if got := RowMinima(3, 0, func(i, k int) float64 { return 0 }, &cnt); len(got) != 3 || got[0] != -1 {
		t.Errorf("q=0 should yield -1s, got %v", got)
	}
	if got := RowMinima(0, 3, func(i, k int) float64 { return 0 }, &cnt); len(got) != 0 {
		t.Errorf("p=0 should yield empty, got %v", got)
	}
	one := RowMinima(1, 1, func(i, k int) float64 { return 5 }, &cnt)
	if len(one) != 1 || one[0] != 0 {
		t.Errorf("1×1 minima = %v", one)
	}
}

func TestCutSMAWKValuesMatchBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		p, q, r := 1+rng.Intn(25), 1+rng.Intn(25), 1+rng.Intn(25)
		a, b := randomPair(rng, p, q, r)
		var c1, c2 matrix.OpCount
		want, _ := matrix.MulBrute(a, b, &c1)
		got := matrix.ValueFromCut(a, b, CutSMAWK(a, b, &c2))
		if !got.Equal(want, 1e-9) {
			t.Fatalf("trial %d dims (%d,%d,%d): SMAWK product differs", trial, p, q, r)
		}
	}
}

func TestCutSMAWKParMatchesCutSMAWK(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m := pram.New(pram.WithWorkers(4), pram.WithGrain(1))
	for trial := 0; trial < 25; trial++ {
		p, q, r := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		if trial < 4 {
			// Force multi-block tasks: p beyond one row block.
			p = smawkRowBlock + 1 + rng.Intn(2*smawkRowBlock)
		}
		a, b := randomPair(rng, p, q, r)
		var c1, c2 matrix.OpCount
		seqCut := CutSMAWK(a, b, &c1)
		parCut := CutSMAWKPar(m, a, b, &c2)
		for i := 0; i < p; i++ {
			for j := 0; j < r; j++ {
				if seqCut.At(i, j) != parCut.At(i, j) {
					t.Fatalf("trial %d dims (%d,%d,%d): par SMAWK cut (%d,%d)=%d, sequential %d",
						trial, p, q, r, i, j, parCut.At(i, j), seqCut.At(i, j))
				}
			}
		}
		parCut.Release()
	}
}

func TestCutRecursiveParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	m := pram.New(pram.WithWorkers(4), pram.WithGrain(4))
	for trial := 0; trial < 20; trial++ {
		p, q, r := 1+rng.Intn(33), 1+rng.Intn(33), 1+rng.Intn(33)
		a, b := randomPair(rng, p, q, r)
		var c1, c2 matrix.OpCount
		seqCut := CutRecursive(a, b, &c1)
		parCut := CutRecursivePar(m, a, b, &c2)
		for i := 0; i < p; i++ {
			for j := 0; j < r; j++ {
				if seqCut.At(i, j) != parCut.At(i, j) {
					t.Fatalf("trial %d: par cut differs at (%d,%d)", trial, i, j)
				}
			}
		}
		if c1.Load() != c2.Load() {
			t.Errorf("trial %d: comparison counts differ %d vs %d", trial, c1.Load(), c2.Load())
		}
	}
}

func TestMulAndMulParWrappers(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(4))
	a, b := randomPair(rng, 17, 23, 11)
	var c1, c2, c3 matrix.OpCount
	want, _ := matrix.MulBrute(a, b, &c1)
	got1, cut1 := Mul(a, b, &c2)
	got2, cut2 := MulPar(m, a, b, &c3)
	if !got1.Equal(want, 1e-9) || !got2.Equal(want, 1e-9) {
		t.Fatal("wrapper products differ from brute force")
	}
	if cut1.R != 17 || cut2.C != 11 {
		t.Fatal("cut shapes wrong")
	}
}

// PRAM step depth of the parallel algorithm is O(log²) as claimed: each of
// the O(log min(p,r)) recursion levels issues O(1) parallel statements.
func TestCutRecursiveParStepDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	n := 256
	a, b := randomPair(rng, n, n, n)
	m := pram.New() // unbounded processors: steps = number of statements
	var cnt matrix.OpCount
	CutRecursivePar(m, a, b, &cnt)
	steps := m.Counters().Steps
	// log2(256) = 8 levels, ≤ 3 statements each, plus the base level.
	if steps > 3*8+4 {
		t.Errorf("parallel statements = %d, want ≤ %d (O(log n) levels)", steps, 3*8+4)
	}
}

package hufpar

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"partree/internal/huffman"
	"partree/internal/matrix"
	"partree/internal/monge"
	"partree/internal/pram"
	"partree/internal/tree"
	"partree/internal/workload"
	"partree/internal/xmath"
)

// The A_h recurrence and package-merge are two independent algorithms for
// the same problem (optimal length-limited codes); they must agree.
func TestHeightLimitedMatchesPackageMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	m := mach()
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		w := workload.SortedAscending(workload.Random(rng, n))
		minH := xmath.CeilLog2(n)
		h := minH + rng.Intn(4)
		tr, cost, err := HeightLimited(m, w, h)
		if err != nil {
			t.Fatalf("trial %d (n=%d h=%d): %v", trial, n, h, err)
		}
		want, err := huffman.LengthLimitedCost(w, h)
		if err != nil {
			t.Fatalf("package-merge failed: %v", err)
		}
		if !xmath.AlmostEqual(cost, want, 1e-9) {
			t.Fatalf("trial %d (n=%d h=%d): A_h cost %v, package-merge %v", trial, n, h, cost, want)
		}
		if got := tr.WeightedPathLength(); !xmath.AlmostEqual(got, cost, 1e-9) {
			t.Fatalf("trial %d: tree WPL %v ≠ matrix cost %v", trial, got, cost)
		}
		if tr.Height() > h {
			t.Fatalf("trial %d: tree height %d exceeds bound %d", trial, tr.Height(), h)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// With a generous height budget the constrained optimum equals the
// unconstrained Huffman cost.
func TestHeightLimitedUnconstrainedLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(257))
	m := mach()
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(30)
		w := workload.SortedAscending(workload.Random(rng, n))
		_, cost, err := HeightLimited(m, w, n-1)
		if err != nil {
			t.Fatal(err)
		}
		if want := huffman.Cost(w); !xmath.AlmostEqual(cost, want, 1e-9) {
			t.Fatalf("trial %d: h=n-1 cost %v ≠ unconstrained %v", trial, cost, want)
		}
	}
}

// Tight budgets: h = ⌈log n⌉ forces a near-balanced tree; h below that is
// infeasible.
func TestHeightLimitedTightAndInfeasible(t *testing.T) {
	m := mach()
	w := workload.Fibonacci(8) // wants depth 7 unconstrained
	tr, cost, err := HeightLimited(m, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 3 {
		t.Errorf("height %d, want exactly 3 for 8 symbols at budget 3", tr.Height())
	}
	unconstrained := huffman.Cost(w)
	if cost < unconstrained-1e-12 {
		t.Error("constrained cost cannot beat unconstrained")
	}
	if _, _, err := HeightLimited(m, w, 2); err == nil {
		t.Error("8 symbols in height 2 must be infeasible")
	}
	if tr, cost, err := HeightLimited(m, []float64{1}, 1); err != nil || cost != 0 || !tr.IsLeaf() {
		t.Error("single symbol special case wrong")
	}
}

// The constrained cost is monotone non-increasing in the budget.
func TestHeightLimitedMonotoneInBudget(t *testing.T) {
	m := mach()
	w := workload.SortedAscending(workload.Zipf(24, 1.4))
	prev := semInf()
	for h := xmath.CeilLog2(24); h <= 23; h += 3 {
		_, cost, err := HeightLimited(m, w, h)
		if err != nil {
			t.Fatal(err)
		}
		if cost > prev+1e-12 {
			t.Fatalf("cost increased from %v to %v at h=%d", prev, cost, h)
		}
		prev = cost
	}
}

func semInf() float64 { return 1e300 }

// fullHeightLimited is HeightLimited without the fixed-point exit: all h
// levels of A_t = (A_{t-1} ⋆ A_{t-1}) + S on dense (n+1)² tables, every
// level's own cut table kept, each product fed the spans Trim scans. It
// is the oracle the exit and the band layout are checked against.
func fullHeightLimited(m *pram.Machine, weights []float64, h int) (*tree.Node, float64) {
	n := len(weights)
	pre := prefixSums(weights)
	a := matrix.NewFull(n+1, n+1, math.Inf(1))
	for i := 0; i < n; i++ {
		a.Set(i, i+1, 0)
	}
	cuts := make([]*matrix.IntMat, h)
	for t := 0; t < h; t++ {
		var prod *matrix.Dense
		at := a.Trim()
		prod, cuts[t] = monge.MulPar(m, at, at, nil)
		next := matrix.NewFull(n+1, n+1, math.Inf(1))
		m.For((n+1)*(n+1), func(e int) {
			i, j := e/(n+1), e%(n+1)
			switch {
			case j == i+1:
				next.Set(i, j, 0)
			case j > i+1:
				next.Set(i, j, prod.At(i, j)+(pre[j]-pre[i]))
			}
		})
		a = next
		prod.Release()
		at.Release()
	}
	t := heightSubtree(weights, cuts, 0, n, h)
	for _, c := range cuts {
		c.Release()
	}
	return t, a.At(0, n)
}

// HeightLimited stops once h exceeds the height the weights need; its
// trees and costs must stay bit-identical to the full run, and the exit
// must fire (fewer counted steps than the full run) on generous budgets.
func TestHeightLimitedMatchesFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(263))
	fired := 0
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		var w []float64
		switch trial % 3 {
		case 0:
			w = workload.SortedAscending(workload.Random(rng, n))
		case 1:
			w = workload.SortedAscending(workload.Zipf(n, 1.2))
		default:
			w = make([]float64, n) // all equal: every split ties
			for i := range w {
				w[i] = 1
			}
		}
		minH := xmath.CeilLog2(n)
		for _, h := range []int{minH, minH + 2, n - 1, n + 3} {
			if h < minH || h < 1 {
				continue
			}
			m, full := pram.New(pram.WithWorkers(2)), pram.New(pram.WithWorkers(2))
			tr, cost, err := HeightLimited(m, w, h)
			if err != nil {
				t.Fatalf("trial %d (n=%d h=%d): %v", trial, n, h, err)
			}
			want, wantCost := fullHeightLimited(full, w, h)
			if math.Float64bits(cost) != math.Float64bits(wantCost) {
				t.Fatalf("trial %d (n=%d h=%d): cost %v, full run %v", trial, n, h, cost, wantCost)
			}
			gs, gsym := tree.Marshal(tr)
			ws, wsym := tree.Marshal(want)
			if gs != ws || !slices.Equal(gsym, wsym) || !tr.Equal(want) {
				t.Fatalf("trial %d (n=%d h=%d): tree differs from the full run", trial, n, h)
			}
			if s, fs := m.Counters().Steps, full.Counters().Steps; s < fs {
				fired++
			} else if s > fs {
				t.Fatalf("trial %d (n=%d h=%d): %d counted steps, full run %d", trial, n, h, s, fs)
			}
			m.Close()
			full.Close()
		}
	}
	if fired == 0 {
		t.Fatal("the fixed-point exit never fired")
	}
	t.Logf("exit fired on %d runs", fired)
}

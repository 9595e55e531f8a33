package obst

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"partree/internal/matrix"
	"partree/internal/monge"
	"partree/internal/pram"
	"partree/internal/semiring"
	"partree/internal/tree"
	"partree/internal/xmath"
)

// fullHeightDP is the height-bounded DP without the fixed-point exit:
// all h levels on dense (n+1)² tables, two fresh tables per level, every
// level's own cut table kept, each product fed the spans Trim scans. It
// is the oracle heightDP's early exit and band layout are checked
// against. Its fold leaves +∞ products at +∞, which is Inf + W for the
// finite weights every instance here has.
func fullHeightDP(m *pram.Machine, n int, w func(a, b int) float64, h int) (float64, levelCuts) {
	e := matrix.NewFull(n+1, n+1, semiring.Inf)
	for a := 0; a <= n; a++ {
		e.Set(a, a, 0)
	}
	cuts := make(levelCuts, h)
	for t := 0; t < h; t++ {
		shifted := matrix.NewFull(n+1, n+1, semiring.Inf)
		m.For((n+1)*(n+1), func(idx int) {
			a, k := idx/(n+1), idx%(n+1)
			if k >= 1 {
				shifted.Set(a, k, e.At(a, k-1))
			}
		})
		var prod *matrix.Dense
		st, et := shifted.Trim(), e.Trim()
		prod, cuts[t] = monge.MulPar(m, st, et, nil)
		st.Release()
		et.Release()
		next := matrix.NewFull(n+1, n+1, semiring.Inf)
		m.For((n+1)*(n+1), func(idx int) {
			a, b := idx/(n+1), idx%(n+1)
			switch {
			case a == b:
				next.Set(a, b, 0)
			case a < b:
				if v := prod.At(a, b); !semiring.IsInf(v) {
					next.Set(a, b, v+w(a, b))
				}
			}
		})
		e = next
		prod.Release()
	}
	return e.At(0, n), cuts
}

// approxOracle is Approx with the full-H DP.
func approxOracle(m *pram.Machine, in *Instance, eps float64) (*tree.Node, levelCuts) {
	c := collapse(in, eps)
	_, cuts := fullHeightDP(m, c.inst.N(), c.inst.weights(), c.h)
	return c.expand(in, cuts), cuts
}

// heightBoundedOracle is HeightBounded with the full-h DP.
func heightBoundedOracle(m *pram.Machine, in *Instance, h int) (float64, *tree.Node) {
	cost, cuts := fullHeightDP(m, in.N(), in.weights(), h)
	defer cuts.release()
	gap := func(g int) *tree.Node { return tree.NewLeaf(g, in.Alpha[g]) }
	return cost, cuts.build(in, h, 0, in.N(), gap, func(r int) int { return r - 1 })
}

// sameTree reports where two trees first differ in shape, symbol or
// weight bits, or "" when they are identical.
func sameTree(a, b *tree.Node) string {
	switch {
	case a.IsLeaf() != b.IsLeaf():
		return fmt.Sprintf("leaf %v vs internal at symbol %d/%d", a.IsLeaf(), a.Symbol, b.Symbol)
	case a.Symbol != b.Symbol:
		return fmt.Sprintf("symbol %d vs %d", a.Symbol, b.Symbol)
	case math.Float64bits(a.Weight) != math.Float64bits(b.Weight):
		return fmt.Sprintf("weight %v vs %v at symbol %d", a.Weight, b.Weight, a.Symbol)
	case a.IsLeaf():
		return ""
	}
	if d := sameTree(a.Left, b.Left); d != "" {
		return d
	}
	return sameTree(a.Right, b.Right)
}

// sameCuts checks that every level of a run that stopped at its fixed
// point reads the table the full run computed for that level.
func sameCuts(t *testing.T, name string, got, want levelCuts) {
	t.Helper()
	for level := 1; level <= len(want); level++ {
		g, w := got.at(level), want[level-1]
		for i := 0; i < w.R; i++ {
			for j := 0; j < w.C; j++ {
				if g.At(i, j) != w.At(i, j) {
					t.Fatalf("%s: level %d cut (%d,%d) = %d, full run %d", name, level, i, j, g.At(i, j), w.At(i, j))
				}
			}
		}
	}
}

// obstShapes are the instance families the exit is checked on: random
// weights, zero-weight keys and gaps, all-equal weights (every root
// choice ties) and a few heavy keys among negligible ones (long runs
// collapse).
var obstShapes = []struct {
	name string
	make func(rng *rand.Rand, n int) *Instance
}{
	{"random", randInstance},
	{"zeros", func(rng *rand.Rand, n int) *Instance {
		in := randInstance(rng, n)
		for i := range in.Beta {
			if rng.Intn(3) == 0 {
				in.Beta[i] = 0
			}
		}
		for i := range in.Alpha {
			if rng.Intn(2) == 0 {
				in.Alpha[i] = 0
			}
		}
		return in
	}},
	{"uniform", func(_ *rand.Rand, n int) *Instance {
		beta := make([]float64, n)
		alpha := make([]float64, n+1)
		for i := range beta {
			beta[i] = 1 / float64(2*n+1)
		}
		for i := range alpha {
			alpha[i] = 1 / float64(2*n+1)
		}
		return &Instance{Beta: beta, Alpha: alpha}
	}},
	{"collapsing", func(rng *rand.Rand, n int) *Instance {
		in := randInstance(rng, n)
		for i := range in.Beta {
			if rng.Intn(6) != 0 {
				in.Beta[i] *= 1e-9
			}
		}
		for i := range in.Alpha {
			in.Alpha[i] *= 1e-9
		}
		return in
	}},
}

// TestApproxMatchesFullDP checks Approx's trees, costs and every level's
// cut table bit for bit against the full-H DP, over every instance shape
// and ε ∈ {1e-2, 1e-6}: every n up to 40, then every fifth up to 150.
func TestApproxMatchesFullDP(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	m := mach()
	defer m.Close()
	for n := 1; n <= 150; n++ {
		if n > 40 && n%5 != 0 {
			continue
		}
		shape := obstShapes[n%len(obstShapes)]
		eps := []float64{1e-2, 1e-6}[(n/len(obstShapes))%2]
		in := shape.make(rng, n)
		name := fmt.Sprintf("%s n=%d ε=%g", shape.name, n, eps)
		res := Approx(m, in, eps)
		want, wantCuts := approxOracle(m, in, eps)
		if d := sameTree(res.Tree, want); d != "" {
			t.Fatalf("%s: tree differs from the full DP: %s", name, d)
		}
		if got, w := res.Cost, in.Cost(want); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("%s: cost %v, full DP %v", name, got, w)
		}
		if res.Collapsed > 0 {
			if res.Levels < 1 || res.Levels > res.HeightBound {
				t.Fatalf("%s: %d levels outside [1, H=%d]", name, res.Levels, res.HeightBound)
			}
			c := collapse(in, eps)
			_, cuts, _ := heightDP(m, c.inst.N(), c.inst.weights(), c.h, "")
			sameCuts(t, name, cuts, wantCuts)
			cuts.release()
		}
		wantCuts.release()
	}
}

// TestHeightBoundedMatchesFullDP checks HeightBounded bit for bit against
// the full-h DP for every h from the feasibility edge up to n+1 while
// n ≤ 24, and for sampled h and every fourteenth n up to 150 beyond.
func TestHeightBoundedMatchesFullDP(t *testing.T) {
	rng := rand.New(rand.NewSource(607))
	m := mach()
	defer m.Close()
	for n := 1; n <= 150; n++ {
		if n > 24 && n%14 != 0 {
			continue
		}
		shape := obstShapes[n%len(obstShapes)]
		in := shape.make(rng, n)
		minH := xmath.CeilLog2(n + 1)
		hs := []int{minH, minH + 1, minH + 2, 2 * minH, n + 1}
		if n <= 24 {
			hs = hs[:0]
			for h := minH; h <= n+1; h++ {
				hs = append(hs, h)
			}
		}
		for _, h := range hs {
			if h > n+1 {
				continue
			}
			cost, tr, err := HeightBounded(m, in, h)
			if err != nil {
				t.Fatalf("%s n=%d h=%d: %v", shape.name, n, h, err)
			}
			wantCost, want := heightBoundedOracle(m, in, h)
			if math.Float64bits(cost) != math.Float64bits(wantCost) {
				t.Fatalf("%s n=%d h=%d: cost %v, full DP %v", shape.name, n, h, cost, wantCost)
			}
			if d := sameTree(tr, want); d != "" {
				t.Fatalf("%s n=%d h=%d: tree differs from the full DP: %s", shape.name, n, h, d)
			}
		}
	}
}

// libParInstance is shaped like the benchmark's ApproxBST input: integer
// key weights 1–1000 and gap weights 0–1000, normalized.
func libParInstance(rng *rand.Rand, n int) *Instance {
	beta := make([]float64, n)
	alpha := make([]float64, n+1)
	total := 0.0
	for i := range beta {
		beta[i] = float64(1 + rng.Intn(1000))
		total += beta[i]
	}
	for i := range alpha {
		alpha[i] = float64(rng.Intn(1001))
		total += alpha[i]
	}
	for i := range beta {
		beta[i] /= total
	}
	for i := range alpha {
		alpha[i] /= total
	}
	return &Instance{Beta: beta, Alpha: alpha}
}

// The exit must fire where it pays: on lib-par-shaped instances the DP
// reaches its fixed point long before Lemma 6.1's H.
func TestApproxExitFires(t *testing.T) {
	rng := rand.New(rand.NewSource(613))
	m := mach()
	defer m.Close()
	for trial := 0; trial < 4; trial++ {
		in := libParInstance(rng, 128)
		res := Approx(m, in, 1e-6)
		if res.Levels >= res.HeightBound {
			t.Fatalf("trial %d: ran all %d levels; the fixed-point exit never fired", trial, res.HeightBound)
		}
		want, cuts := approxOracle(m, in, 1e-6)
		cuts.release()
		if d := sameTree(res.Tree, want); d != "" {
			t.Fatalf("trial %d: tree differs from the full DP: %s", trial, d)
		}
		t.Logf("trial %d: %d of H=%d levels", trial, res.Levels, res.HeightBound)
	}
}

// TestApproxDepthBound checks Theorem 6.1's O(log(1/ε)·log n) depth on
// counted steps with unboundedly many processors: Levels ≤ H, and every
// level is one concave product of O(log n) statements plus the shift
// and fold, so steps ≤ c·Levels·⌈log₂ n⌉.
func TestApproxDepthBound(t *testing.T) {
	// Fitted: steps/(Levels·⌈log₂ n⌉) measured 2.75–3.20 over these sizes.
	const c = 3.5
	rng := rand.New(rand.NewSource(617))
	for _, n := range []int{32, 64, 128, 256} {
		in := libParInstance(rng, n)
		m := pram.New(pram.WithWorkers(2))
		res := Approx(m, in, 1e-6)
		m.Close()
		if res.Levels > res.HeightBound {
			t.Fatalf("n=%d: %d levels exceed H=%d", n, res.Levels, res.HeightBound)
		}
		steps := m.Counters().Steps
		bound := c * float64(res.Levels*xmath.CeilLog2(n))
		t.Logf("n=%d: %d steps over %d levels (H=%d), %.2f per level·log n",
			n, steps, res.Levels, res.HeightBound, float64(steps)/float64(res.Levels*xmath.CeilLog2(n)))
		if float64(steps) > bound {
			t.Fatalf("n=%d: %d counted steps exceed %.1f·Levels·⌈log₂ n⌉ = %.0f", n, steps, c, bound)
		}
	}
}

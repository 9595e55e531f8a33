package partree

import (
	"math/rand"
	"testing"

	"partree/internal/hufpar"
	"partree/internal/obst"
	"partree/internal/pram"
	"partree/internal/workload"
)

// TestConcaveCountsPinned pins the counted comparisons, steps and work of
// the two constructions built on the §4.1 concave product, on the shapes
// the E4 benchmark and lib-par run: Huffman (Thm 5.1) over 256 Zipf and
// uniform frequencies, and the approximate search tree (Thm 6.1) over 128
// integer-weighted keys at ε = 1e-6. The counts are exact functions of
// the input, so a change to how the product reads or writes its tables
// must leave every one of them as it is.
func TestConcaveCountsPinned(t *testing.T) {
	for _, tc := range []struct {
		name             string
		run              func(m *pram.Machine) int64
		cmp, steps, work int64
	}{
		{"hufpar/zipf/n=256", func(m *pram.Machine) int64 {
			return hufpar.BuildConcave(m, workload.SortedAscending(workload.Zipf(256, 1.1))).Comparisons
		}, 681624, 285, 915961},
		{"hufpar/uniform/n=256", func(m *pram.Machine) int64 {
			return hufpar.BuildConcave(m, workload.Uniform(256)).Comparisons
		}, 643563, 285, 915961},
		{"obst/n=128/eps=1e-6", func(m *pram.Machine) int64 {
			return obst.Approx(m, libParBST(rand.New(rand.NewSource(619)), 128), 1e-6).Comparisons
		}, 113057, 124, 184684},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := pram.New(pram.WithWorkers(2))
			defer m.Close()
			cmp := tc.run(m)
			ctr := m.Counters()
			if cmp != tc.cmp || ctr.Steps != tc.steps || ctr.Work != tc.work {
				t.Errorf("comparisons %d, steps %d, work %d; pinned %d, %d, %d",
					cmp, ctr.Steps, ctr.Work, tc.cmp, tc.steps, tc.work)
			}
		})
	}
}

// libParBST is a lib-par-shaped search problem over n keys: integer key
// weights in [1, 1000] and gap weights in [0, 1000], normalized to
// probabilities.
func libParBST(rng *rand.Rand, n int) *obst.Instance {
	beta, alpha := make([]float64, n), make([]float64, n+1)
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
	return &obst.Instance{Beta: beta, Alpha: alpha}
}

package leafpattern

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"partree/internal/pram"
	"partree/internal/tree"
	"partree/internal/workload"
)

// goldenBuild is the SHA-256 of Build's (pattern, rounds, error, shape,
// symbols) over goldenCorpus, recorded before Finger-Reduction moved onto
// the shared link kernel. A change to any tree Build returns, to its round
// count or to its verdict on an infeasible pattern changes the hash.
const goldenBuild = "c16e96f943aa332839ea733cb327861dd15c05d92ce424b6b1e91e6963c1bade"

// goldenCorpus returns 400 seeded patterns: random full-tree patterns,
// finger patterns, and small random patterns, most of them infeasible.
func goldenCorpus() [][]int {
	rng := rand.New(rand.NewSource(2028))
	var ps [][]int
	for i := 0; i < 400; i++ {
		switch i % 4 {
		case 0:
			ps = append(ps, workload.TreePattern(rng, 1+rng.Intn(600)))
		case 1:
			ps = append(ps, workload.FingerPattern(rng, 8+rng.Intn(600), 1+rng.Intn(40)))
		default:
			p := make([]int, 1+rng.Intn(16))
			for j := range p {
				p[j] = rng.Intn(7)
			}
			ps = append(ps, p)
		}
	}
	return ps
}

func TestBuildGolden(t *testing.T) {
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(16))
	h := sha256.New()
	infeasible, maxRounds := 0, 0
	for _, p := range goldenCorpus() {
		tr, rounds, err := Build(m, p)
		if err != nil {
			infeasible++
		}
		maxRounds = max(maxRounds, rounds)
		shape, symbols := tree.Marshal(tr)
		fmt.Fprintf(h, "%v|%d|%v|%s|%v\n", p, rounds, err, shape, symbols)
	}
	t.Logf("%d infeasible patterns, up to %d rounds", infeasible, maxRounds)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenBuild {
		t.Fatalf("Build over the golden corpus hashes to %s, want %s", got, goldenBuild)
	}
}

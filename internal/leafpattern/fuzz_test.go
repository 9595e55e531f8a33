package leafpattern

import (
	"errors"
	"testing"

	"partree/internal/kraft"
	"partree/internal/pram"
)

// FuzzLeafPattern cross-checks the tree-from-depth-pattern constructions
// on arbitrary patterns. The sequential Finger-Reduction (Build) and the
// greedy codeword-packing oracle (Greedy) must agree on feasibility, and
// any tree either produces must be structurally valid, reproduce the
// input pattern leaf for leaf with symbols 0…n-1 in order, and satisfy the
// Kraft inequality. On bitonic patterns BitonicPar must return the
// sequential oracle's tree, and on monotone ones MonotonePar must, with the
// same error. Cut into maximal bitonic runs, the pattern must link in one
// call to the oracle's forest of every run, node for node. Fuzz with
// `go test -fuzz=FuzzLeafPattern ./internal/leafpattern`.
func FuzzLeafPattern(f *testing.F) {
	f.Add([]byte{0})                     // single root leaf
	f.Add([]byte{1, 1})                  // perfect pair
	f.Add([]byte{1, 2, 3, 3})            // monotone, tight Kraft
	f.Add([]byte{3, 3, 2, 2, 3, 3})      // bitonic with plateau
	f.Add([]byte{5, 1, 5, 1})            // fingers
	f.Add([]byte{2, 2, 2, 2, 2})         // infeasible: Kraft > 1
	f.Add([]byte{0, 0})                  // infeasible: two roots
	f.Add([]byte{24, 23, 22, 1, 22, 24}) // deep finger pattern

	m := pram.New(pram.WithWorkers(2), pram.WithGrain(4))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			return
		}
		pattern := make([]int, len(data))
		for i, b := range data {
			pattern[i] = int(b % 25) // depths 0..24 keep the trie finite
		}

		if IsBitonic(pattern) {
			checkSameTree(t, m, "BitonicPar", pattern, seqBitonic, BitonicPar)
		}
		if IsMonotone(pattern) {
			checkSameTree(t, m, "MonotonePar", pattern, seqMonotone, MonotonePar)
		}
		var runs [][]int
		for lo := 0; lo < len(pattern); {
			hi := lo + 1
			for hi < len(pattern) && IsBitonic(pattern[lo:hi+1]) {
				hi++
			}
			runs = append(runs, pattern[lo:hi])
			lo = hi
		}
		checkForests(t, m, runs)

		oracle, oErr := Greedy(pattern)
		got, _, err := Build(m, pattern)
		if (oErr == nil) != (err == nil) {
			t.Fatalf("feasibility disagreement on %v: greedy=%v build=%v", pattern, oErr, err)
		}
		if err != nil {
			if !errors.Is(err, ErrNoTree) {
				t.Fatalf("unexpected error kind on %v: %v", pattern, err)
			}
			// Infeasible verdicts need no further checks; note Kraft > 1
			// always implies infeasibility, checked from the other side
			// below.
			return
		}

		if kraft.Compare(pattern) > 0 {
			t.Fatalf("built a tree for %v though Kraft sum exceeds 1", pattern)
		}
		checkRealizes(t, oracle, pattern, "greedy")
		checkRealizes(t, got, pattern, "build")
	})
}

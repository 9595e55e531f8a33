package leafpattern

import (
	"math/bits"
	"sort"

	"partree/internal/faultpoint"
	"partree/internal/par"
	"partree/internal/pram"
	"partree/internal/tree"
)

// MonotonePar builds a tree for a monotone (non-increasing or
// non-decreasing) pattern (Theorem 7.1). A monotone pattern is bitonic, so
// it runs BitonicPar's kernel. It returns ErrNoTree when the Kraft sum
// exceeds 1 (Lemma 7.1).
func MonotonePar(m *pram.Machine, pattern []int) (*tree.Node, error) {
	if err := validate(pattern); err != nil {
		return nil, err
	}
	if !IsMonotone(pattern) {
		return nil, errNotMonotone
	}
	defer m.Phase("leafpattern.MonotonePar")()
	faultpoint.Hit("leafpattern.monotone")
	// The peak is the first index of the deepest leaf: 0 for a
	// non-increasing pattern, a binary search for a non-decreasing one.
	peak, n := 0, len(pattern)
	if pattern[0] < pattern[n-1] {
		peak = sort.SearchInts(pattern, pattern[n-1])
	}
	return linkOne(m, pattern, peak)
}

// BitonicPar builds a tree for a bitonic pattern (Theorem 7.2). It returns
// ErrNoTree when the Kraft sum exceeds 1 (Lemma 7.2).
func BitonicPar(m *pram.Machine, pattern []int) (*tree.Node, error) {
	if err := validate(pattern); err != nil {
		return nil, err
	}
	peak, ok := bitonicPeak(pattern)
	if !ok {
		return nil, errNotBitonic
	}
	defer m.Phase("leafpattern.BitonicPar")()
	return linkOne(m, pattern, peak)
}

// linkOne links a bitonic pattern as a single run. Its minimal forest is
// a tree exactly when the Kraft sum is at most 1.
func linkOne(m *pram.Machine, pattern []int, peak int) (*tree.Node, error) {
	runs := [...]int{0, len(pattern), peak, 0, pattern[peak] + 1}
	slab, off := link(m, pattern, runs[0:2], runs[2:3], runs[3:5])
	if off[1] != 1 {
		return nil, ErrNoTree
	}
	return &slab[0], nil
}

// link builds the minimal ordered forests (Theorem 7.2) of bitonic runs
// laid end to end in one pattern. Run r is pattern[start[r]:start[r+1]],
// its first deepest leaf sits at index peak[r], and its levels 0…L_r take
// the level slots [base[r], base[r+1]), so base[r+1] = base[r] + L_r + 1.
// Every run is built in the same statements, over all positions and all
// slots at once; with L the deepest level of a single run that is 4 +
// ⌈log₂(L+1)⌉ + ⌈log₂(L+2)⌉ statements, O(log n) when the Kraft sum is 1
// (then L < n):
//
//  1. level runs: each side of a peak is sorted, so the leaves of one
//     level form one contiguous run per side. The position that starts a
//     run writes its index and the one that ends it writes its successor —
//     one statement, each cell written once.
//  2. internal-node counts I_l = ⌈Σ_{j>l} a_j 2^{l-j}⌉ by one segmented
//     scan of the level maps x ↦ ⌈(x + a_j)/2⌉, since I_l = ⌈(a_{l+1} +
//     I_{l+1})/2⌉: the associative-scan form of the paper's carry
//     propagation, in O(log n)-bit words (see halving). Each run's deepest
//     slot restarts the composition.
//  3. slot offsets by one scan of the slot sizes.
//  4. linking: the forests share one slab of nodes, and slot s occupies
//     slab[off[s]:off[s+1]] as [rising leaves][internals][falling leaves].
//     In one statement every node finds its slot by binary search on off,
//     a leaf sets its Symbol to its position in pattern, and every node
//     writes itself into its parent's child slot: node i of a slot s below its run's roots is
//     child i%2 of slab[off[s-1]+left(s-1)+i/2]. Reads and writes go to
//     distinct cells, the EREW discipline of the theorem.
//
// Run r's roots are slab[off[base[r]]:off[base[r]+1]]; their number is
// ⌈Σ 2^{-lᵢ}⌉ over the run, the fewest trees that realize it in order.
func link(m *pram.Machine, pattern, start, peak, base []int) ([]tree.Node, []int) {
	n, S := len(pattern), base[len(base)-1]

	// Phase 1. Side 0 rises (indices before the peak), side 1 falls.
	// Slots with no run on a side keep lo = hi = 0.
	bounds := make([]int, 4*S)
	lo := [2][]int{bounds[:S], bounds[S : 2*S]}
	hi := [2][]int{bounds[2*S : 3*S], bounds[3*S:]}
	m.For(n, func(i int) {
		r := interval(start, i)
		l, s := pattern[i], 0
		if i >= peak[r] {
			s = 1
		}
		if i == start[r] || pattern[i-1] != l {
			lo[s][base[r]+l] = i
		}
		if i == start[r+1]-1 || pattern[i+1] != l {
			hi[s][base[r]+l] = i + 1
		}
	})
	left := func(s int) int { return hi[0][s] - lo[0][s] }

	// Phase 2. maps runs deepest slot first, so its inclusive scan holds
	// the compositions I_l = (f_{l+1} ∘ … ∘ f_L)(0) of slot s at
	// sums[S-2-s].
	counts := make([]int, S)
	maps := make([]halving, S)
	m.For(S, func(s int) {
		counts[s] = left(s) + hi[1][s] - lo[1][s]
		deepest := base[interval(base, s)+1] == s+1
		maps[S-1-s] = halving{q: counts[s] / 2, r: counts[s] % 2, k: 1, first: deepest}
	})
	K := bits.Len(uint(n))
	sums := par.ScanInclusive(m, maps, func(f, g halving) halving {
		if g.first {
			return g
		}
		return f.then(g, K)
	})
	inner := make([]int, S)
	off := make([]int, S+1)
	m.For(S, func(s int) {
		if !maps[S-1-s].first {
			h := sums[S-2-s]
			inner[s] = h.q + min(h.r, 1) // its value at x = 0
		}
		off[s+1] = counts[s] + inner[s]
	})

	// Phase 3.
	off = par.ScanInclusive(m, off, func(a, b int) int { return a + b })

	// Phase 4.
	slab := make([]tree.Node, off[S])
	m.For(len(slab), func(v int) {
		s := interval(off, v)
		i, node := v-off[s], &slab[v]
		if k := i - left(s) - inner[s]; k >= 0 {
			node.Symbol = lo[1][s] + k
		} else if i < left(s) {
			node.Symbol = lo[0][s] + i
		}
		if s == 0 || maps[S-s].first { // slot s-1 ends a run: s holds roots
			return
		}
		parent := &slab[off[s-1]+left(s-1)+i/2]
		if i%2 == 0 {
			parent.Left = node
		} else {
			parent.Right = node
		}
	})
	return slab, off
}

// interval returns the r with xs[r] ≤ i < xs[r+1] in a strictly
// increasing xs, by binary search.
func interval(xs []int, i int) int {
	lo, hi := 0, len(xs)-1
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); xs[mid] <= i {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// halving is the map x ↦ q + ⌈(x + r)/2^k⌉, 0 ≤ r < 2^k, on the
// internal-node counts 0 ≤ x ≤ n of a pattern of n leaves, and first marks
// the deepest slot of a run, where the segmented scan restarts. Level j's
// map ⌈(x + a_j)/2⌉ takes [0, n] into itself (a_j ≤ n), so every
// composition of them does too, and only its values on [0, n] matter: once
// k passes K, with 2^K > n, the map keeps its values there with k = K and
// r clamped. Every field then stays below 2^(2K), in one word while
// n < 2^31, far beyond any slab of 2n − 1 nodes that fits in memory. k
// fits an int32, which keeps the flag inside three words: the scan is as
// long as the pattern's depth, up to n − 1.
type halving struct {
	q, r  int
	k     int32
	first bool
}

// then returns g ∘ f, f applied first, in f's segment:
// g(f(x)) = g.q + ⌈(x + f.r + (f.q + g.r)·2^f.k) / 2^(f.k+g.k)⌉.
func (f halving) then(g halving, K int) halving {
	c := f.q + g.r
	h := halving{q: g.q + c>>g.k, r: f.r + (c&(1<<g.k-1))<<f.k, k: f.k + g.k, first: f.first}
	if int(h.k) > K {
		// ⌈(x + r)/2^k⌉ on [0, n] is 0 at x + r = 0, 1 up to x = 2^k − r
		// and 2 past it; keep r's sign and that threshold, or any
		// threshold at least n when it lies beyond 2^K − 1 ≥ n.
		if h.r > 0 {
			h.r = max(1, h.r-1<<h.k+1<<K)
		}
		h.k = int32(K)
	}
	return h
}

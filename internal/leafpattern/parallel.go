package leafpattern

import (
	"math/bits"
	"slices"
	"sort"

	"partree/internal/faultpoint"
	"partree/internal/kraft"
	"partree/internal/par"
	"partree/internal/pram"
	"partree/internal/tree"
)

// MonotonePar is the PRAM-scheduled form of Monotone (Theorem 7.1). A
// monotone pattern is bitonic, so it runs BitonicPar's kernel and returns
// the tree Monotone returns, node for node. It returns ErrNoTree when the
// Kraft sum exceeds 1 (Lemma 7.1).
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
	return link(m, pattern, peak)
}

// BitonicPar is the PRAM-scheduled form of Bitonic (Theorem 7.2) and
// returns the tree Bitonic returns, node for node. It returns ErrNoTree
// when the Kraft sum exceeds 1 (Lemma 7.2).
func BitonicPar(m *pram.Machine, pattern []int) (*tree.Node, error) {
	if err := validate(pattern); err != nil {
		return nil, err
	}
	peak, ok := bitonicPeak(pattern)
	if !ok {
		return nil, errNotBitonic
	}
	defer m.Phase("leafpattern.BitonicPar")()
	return link(m, pattern, peak)
}

// link builds the tree of a bitonic pattern whose first deepest leaf sits
// at index peak. With L that leaf's depth it issues 4 + ⌈log₂(L+1)⌉ +
// ⌈log₂(L+2)⌉ statements, O(log n) when the Kraft sum is 1 (then L < n):
//
//  1. level runs: each side of the peak is sorted, so the leaves of one
//     level form one contiguous run per side. The position that starts a
//     run writes its index and the one that ends it writes its successor —
//     one statement, each cell written once.
//  2. internal-node counts I_l = ⌈Σ_{j>l} a_j 2^{l-j}⌉ by one scan of
//     the level maps x ↦ ⌈(x + a_j)/2⌉, since I_l = ⌈(a_{l+1} + I_{l+1})/2⌉:
//     the associative-scan form of the paper's carry propagation, in
//     O(log n)-bit words (see halving).
//  3. level offsets by one scan of the level sizes.
//  4. linking: the tree is one slab of nodes, and level l occupies
//     slab[off[l]:off[l+1]] as [rising leaves][internals][falling leaves],
//     which is buildForest's layout. In one statement every node finds its
//     level by binary search on off, sets its Symbol, and writes itself
//     into its parent's child slot: node i of level l is child i%2 of
//     slab[off[l-1]+left[l-1]+i/2]. Reads and writes go to distinct cells,
//     the EREW discipline of the theorem.
func link(m *pram.Machine, pattern []int, peak int) (*tree.Node, error) {
	n, L := len(pattern), pattern[peak]

	// Phase 1. Side 0 rises (indices before the peak), side 1 falls.
	// Levels with no run on a side keep lo = hi = 0.
	bounds := make([]int, 4*(L+1))
	lo := [2][]int{bounds[:L+1], bounds[L+1 : 2*(L+1)]}
	hi := [2][]int{bounds[2*(L+1) : 3*(L+1)], bounds[3*(L+1):]}
	m.For(n, func(i int) {
		l, s := pattern[i], 0
		if i >= peak {
			s = 1
		}
		if i == 0 || pattern[i-1] != l {
			lo[s][l] = i
		}
		if i == n-1 || pattern[i+1] != l {
			hi[s][l] = i + 1
		}
	})
	left := func(l int) int { return hi[0][l] - lo[0][l] }

	counts := make([]int, L+1)
	maps := make([]halving, L+1)
	m.For(L+1, func(l int) {
		counts[l] = left(l) + hi[1][l] - lo[1][l]
		maps[L-l] = halving{q: counts[l] / 2, r: counts[l] % 2, k: 1}
	})
	if kraft.CompareCounts(counts) > 0 {
		return nil, ErrNoTree
	}

	// Phase 2. maps runs deepest first, so its inclusive scan holds the
	// compositions I_l = (f_{l+1} ∘ … ∘ f_L)(0) at sums[L-l-1].
	K := bits.Len(uint(n))
	sums := par.ScanInclusive(m, maps, func(f, g halving) halving { return f.then(g, K) })
	inner := make([]int, L+1)
	off := make([]int, L+2)
	m.For(L+1, func(l int) {
		if l < L {
			h := sums[L-l-1]
			inner[l] = h.q + min(h.r, 1) // its value at x = 0
		}
		off[l+1] = counts[l] + inner[l]
	})
	if counts[0]+inner[0] != 1 {
		return nil, ErrNoTree
	}

	// Phase 3.
	off = par.ScanInclusive(m, off, func(a, b int) int { return a + b })

	// Phase 4.
	slab := make([]tree.Node, off[L+1])
	m.For(len(slab), func(v int) {
		l, _ := slices.BinarySearch(off, v+1)
		l--
		i, node := v-off[l], &slab[v]
		if k := i - left(l) - inner[l]; k >= 0 {
			node.Symbol = lo[1][l] + k
		} else if i < left(l) {
			node.Symbol = lo[0][l] + i
		}
		if l == 0 {
			return
		}
		parent := &slab[off[l-1]+left(l-1)+i/2]
		if i%2 == 0 {
			parent.Left = node
		} else {
			parent.Right = node
		}
	})
	return &slab[0], nil
}

// halving is the map x ↦ q + ⌈(x + r)/2^k⌉, 0 ≤ r < 2^k, on the
// internal-node counts 0 ≤ x ≤ n of a pattern of n leaves. Level j's map
// ⌈(x + a_j)/2⌉ takes [0, n] into itself (a_j ≤ n), so every composition
// of them does too, and only its values on [0, n] matter: once k passes
// K, with 2^K > n, the map keeps its values there with k = K and r
// clamped. Every field then stays below 2^(2K), in one word while
// n < 2^31, far beyond any slab of 2n − 1 nodes that fits in memory.
type halving struct{ q, r, k int }

// then returns g ∘ f, f applied first:
// g(f(x)) = g.q + ⌈(x + f.r + (f.q + g.r)·2^f.k) / 2^(f.k+g.k)⌉.
func (f halving) then(g halving, K int) halving {
	c := f.q + g.r
	h := halving{q: g.q + c>>g.k, r: f.r + (c&(1<<g.k-1))<<f.k, k: f.k + g.k}
	if h.k > K {
		// ⌈(x + r)/2^k⌉ on [0, n] is 0 at x + r = 0, 1 up to x = 2^k − r
		// and 2 past it; keep r's sign and that threshold, or any
		// threshold at least n when it lies beyond 2^K − 1 ≥ n.
		if h.r > 0 {
			h.r = max(1, h.r-1<<h.k+1<<K)
		}
		h.k = K
	}
	return h
}

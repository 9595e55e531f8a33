// Package workload generates the synthetic inputs used by the tests,
// examples and benchmark harness: frequency vectors with the distribution
// shapes classic for coding and search-tree experiments (uniform, Zipf,
// geometric, exponential-tail, English letters), and leaf-depth patterns
// (monotone, bitonic, multi-finger) for the Section 7 algorithms.
//
// The paper evaluates on abstract inputs (its results are theorems); these
// generators stand in for the "messages over a source alphabet" and
// dictionary access distributions its introduction motivates.
package workload

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
)

// Normalize scales xs so it sums to 1 (in place) and returns it. A zero
// vector is left unchanged.
func Normalize(xs []float64) []float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	if s == 0 {
		return xs
	}
	for i := range xs {
		xs[i] /= s
	}
	return xs
}

// Uniform returns n equal frequencies summing to 1.
func Uniform(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 / float64(n)
	}
	return out
}

// Zipf returns n frequencies following a Zipf law with exponent s ≥ 0
// (rank r gets weight 1/r^s), normalized, in rank order (decreasing).
func Zipf(n int, s float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 / math.Pow(float64(i+1), s)
	}
	return Normalize(out)
}

// Geometric returns n frequencies decaying by the given ratio ∈ (0,1):
// weight_i ∝ ratio^i, normalized, decreasing. Small ratios produce very
// skewed vectors and therefore deep Huffman trees.
func Geometric(n int, ratio float64) []float64 {
	out := make([]float64, n)
	w := 1.0
	for i := range out {
		out[i] = w
		w *= ratio
	}
	return Normalize(out)
}

// Random returns n frequencies drawn uniformly from (0,1), normalized,
// in random order.
func Random(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() + 1e-9
	}
	return Normalize(out)
}

// Fibonacci returns the classic worst-case vector for Huffman tree depth:
// weights proportional to Fibonacci numbers, increasing, normalized. The
// optimal tree is a single deep spine (depth n-1).
func Fibonacci(n int) []float64 {
	out := make([]float64, n)
	a, b := 1.0, 1.0
	for i := range out {
		out[i] = a
		a, b = b, a+b
	}
	return Normalize(out)
}

// English returns the relative frequencies of the 26 English letters
// (Lewand's ordering), normalized, indexed a…z.
func English() []float64 {
	f := []float64{
		8.167, 1.492, 2.782, 4.253, 12.702, 2.228, 2.015, 6.094, 6.966,
		0.153, 0.772, 4.025, 2.406, 6.749, 7.507, 1.929, 0.095, 5.987,
		6.327, 9.056, 2.758, 0.978, 2.360, 0.150, 1.974, 0.074,
	}
	return Normalize(f)
}

// SortedAscending returns a copy of xs sorted in non-decreasing order (the
// precondition of the paper's Section 3/5 Huffman algorithms).
func SortedAscending(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// MonotonePattern returns a non-increasing leaf-depth pattern of n leaves
// with Kraft sum exactly 1, drawn by random leaf splitting. maxSkew ≥ 1
// biases splits toward already-deep leaves, producing more level variety.
func MonotonePattern(rng *rand.Rand, n, maxSkew int) []int {
	depths := []int{0}
	for len(depths) < n {
		i := rng.Intn(len(depths))
		for s := 1; s < maxSkew; s++ {
			j := rng.Intn(len(depths))
			if depths[j] > depths[i] {
				i = j
			}
		}
		depths[i]++
		depths = append(depths, depths[i])
	}
	sort.Sort(sort.Reverse(sort.IntSlice(depths)))
	return depths
}

// BitonicPattern returns a leaf-depth pattern that increases then
// decreases, with Kraft sum exactly 1: a monotone pattern split at a random
// point with its prefix reversed.
func BitonicPattern(rng *rand.Rand, n, maxSkew int) []int {
	d := MonotonePattern(rng, n, maxSkew) // non-increasing
	cut := rng.Intn(len(d) + 1)
	out := make([]int, 0, n)
	for i := cut - 1; i >= 0; i-- {
		out = append(out, d[i]) // non-decreasing prefix
	}
	out = append(out, d[cut:]...) // non-increasing suffix
	return out
}

// TreePattern returns the leaf-depth pattern of a random full binary tree
// with n leaves: a general (arbitrarily wiggly) pattern that is guaranteed
// to admit a tree. It grows the tree from one leaf, splitting the leaf at
// a uniform position of the current leaf order, one rng.Intn draw per
// split.
//
// Each split keeps its leaf as the left child and inserts a new leaf, the
// right child, just after it. Insertions never reorder the leaves, so the
// draws fix every leaf's final slot: taken in reverse, the leaf inserted
// at position p of a list of s+1 leaves owns the p-th slot not owned by a
// later leaf. A second pass replays the splits forward over the final
// slots, finding the split leaf as the i-th slot filled so far. Both
// passes search a Fenwick tree of slot counts, so a call takes O(n log n)
// time.
func TreePattern(rng *rand.Rand, n int) []int {
	n = max(n, 1)
	draws := make([]int, n) // draws[s]: where split s cuts, among s leaves
	for s := 1; s < n; s++ {
		draws[s] = rng.Intn(s)
	}
	slot := make([]int, n) // slot[s]: the final slot of leaf s, inserted by split s
	free := newFenwick(n)
	for i := 0; i < n; i++ {
		free.add(i, 1)
	}
	for s := n - 1; s >= 0; s-- {
		p := 0 // leaf 0, the root, takes the last free slot
		if s > 0 {
			p = draws[s] + 1
		}
		slot[s] = free.find(p)
		free.add(slot[s], -1)
	}
	depths := make([]int, n)
	filled := free // every slot is owned, so every count is zero again
	filled.add(slot[0], 1)
	for s := 1; s < n; s++ {
		split := filled.find(draws[s])
		depths[split]++
		depths[slot[s]] = depths[split]
		filled.add(slot[s], 1)
	}
	return depths
}

// fenwick is a binary indexed tree of counts over slots 0..n−1.
type fenwick []int

func newFenwick(n int) fenwick { return make(fenwick, n+1) }

// add adds v to slot i's count.
func (f fenwick) add(i, v int) {
	for i++; i < len(f); i += i & -i {
		f[i] += v
	}
}

// find returns the slot holding the k-th unit of count (k from 0).
func (f fenwick) find(k int) int {
	pos := 0
	for step := 1 << (bits.Len(uint(len(f))) - 1); step > 0; step >>= 1 {
		if next := pos + step; next < len(f) && f[next] <= k {
			pos = next
			k -= f[next]
		}
	}
	return pos
}

// FingerPattern returns a realizable pattern with ~m mountains
// ("fingers") of equal width over n leaves: m copies of a small mountain
// (rise to a peak, fall back) concatenated at a common base level chosen
// so the Kraft sum stays ≤ 1. Because the fingers share one base, a
// single Finger-Reduction round removes all of them simultaneously —
// the paper's "simultaneously remove all fingers" in isolation; nested
// patterns (TreePattern) drive the O(log m) round count.
func FingerPattern(rng *rand.Rand, n, m int) []int {
	if m < 1 {
		m = 1
	}
	if m > n/4 {
		m = n / 4
	}
	if m < 1 {
		m = 1
	}
	// Base level deep enough that m mountains of width w fit under Kraft 1:
	// each leaf at level ≥ base contributes ≤ 2^-base; need n·2^-base ≤ 1.
	base := 1
	for 1<<base < n {
		base++
	}
	base++ // strict slack so every mountain is independent
	w := n / m
	out := make([]int, 0, n)
	for f := 0; f < m; f++ {
		width := w
		if f == m-1 {
			width = n - len(out)
		}
		// A mountain: up for half, down for half, with random jitter.
		half := width / 2
		lvl := base
		for i := 0; i < width; i++ {
			out = append(out, lvl)
			if i < half {
				lvl += 1 + rng.Intn(2)
			} else if lvl > base+1 {
				lvl -= 1 + rng.Intn(xmathMin(2, lvl-base-1)+1)
				if lvl < base {
					lvl = base
				}
			}
		}
	}
	return out
}

func xmathMin(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Fingers counts the number of maximal strictly increasing runs in the
// pattern — a proxy for the paper's finger count m in Theorem 7.3.
func Fingers(pattern []int) int {
	if len(pattern) == 0 {
		return 0
	}
	m := 1
	for i := 1; i < len(pattern); i++ {
		if pattern[i] > pattern[i-1] && (i == 1 || pattern[i-1] <= pattern[i-2]) {
			m++
		}
	}
	return m
}

// Package leafpattern solves the paper's Tree Construction Problem
// (Definition 1.1): given leaf depths l_1,…,l_n, build an ordered binary
// tree whose leaves, read left to right, sit at exactly those depths.
//
// It implements the Section 7 algorithm family on one kernel, link: the
// O(log n)-round EREW schedule of Theorem 7.2 that builds the minimal
// ordered forests of bitonic runs laid end to end, all runs at once, in
// one slab of nodes.
//
//   - MonotonePar / BitonicPar: non-increasing or non-decreasing patterns
//     (Theorem 7.1) and patterns that rise then fall (Theorem 7.2), one
//     run each,
//   - Build: general patterns by Finger-Reduction (Lemma 7.3, Theorem
//     7.3), one link call per round for all of the round's fingers and
//     one for the final bitonic pattern,
//   - Greedy: an independent sequential oracle (leftmost codeword packing
//     with big integers), used to cross-check feasibility and output.
//
// Leaves of returned trees carry Symbol = position of the depth in the
// input pattern.
package leafpattern

import (
	"errors"
	"fmt"
)

// ErrNoTree is returned when no ordered binary tree realizes the pattern.
var ErrNoTree = errors.New("leafpattern: no tree realizes the pattern")

var (
	errNotMonotone = errors.New("leafpattern: pattern is not monotone")
	errNotBitonic  = errors.New("leafpattern: pattern is not bitonic")
)

func validate(pattern []int) error {
	if len(pattern) == 0 {
		return errors.New("leafpattern: empty pattern")
	}
	for i, l := range pattern {
		if l < 0 {
			return fmt.Errorf("leafpattern: negative depth %d at %d", l, i)
		}
	}
	return nil
}

// IsMonotone reports whether the pattern is non-increasing or
// non-decreasing.
func IsMonotone(pattern []int) bool {
	inc, dec := true, true
	for i := 1; i < len(pattern); i++ {
		if pattern[i] > pattern[i-1] {
			dec = false
		}
		if pattern[i] < pattern[i-1] {
			inc = false
		}
	}
	return inc || dec
}

// IsBitonic reports whether the pattern is non-decreasing then
// non-increasing (monotone patterns are bitonic).
func IsBitonic(pattern []int) bool {
	_, ok := bitonicPeak(pattern)
	return ok
}

// bitonicPeak returns the index of the first deepest leaf of a bitonic
// pattern, and false if the pattern is not bitonic.
func bitonicPeak(pattern []int) (int, bool) {
	peak, i := 0, 1
	for ; i < len(pattern) && pattern[i] >= pattern[i-1]; i++ {
		if pattern[i] > pattern[i-1] {
			peak = i
		}
	}
	for ; i < len(pattern); i++ {
		if pattern[i] > pattern[i-1] {
			return 0, false
		}
	}
	return peak, true
}

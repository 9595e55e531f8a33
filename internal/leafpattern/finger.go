package leafpattern

import (
	"partree/internal/pram"
	"partree/internal/tree"
	"partree/internal/xmath"
)

// Build solves the general tree-construction problem with the paper's
// Finger-Reduction (Section 7.2): every round simultaneously removes all
// fingers — maximal runs that rise above their flanking min-points —
// replacing each with the ⌈Kraft⌉ many subtree roots its leaves pack into,
// which at least halves the number of fingers (Lemma 7.3). One link call
// per round builds the minimal bitonic forests of all the round's fingers
// (Theorem 7.2), and the placeholder record standing for a subtree root
// carries it. When the pattern becomes bitonic one more link call builds
// the root tree. After each call one statement grafts the leaves, so a
// placeholder's leaf becomes its subtree root.
//
// Build returns the tree, the number of reduction rounds (observably
// O(log m) for m fingers, Theorem 7.3), and ErrNoTree when the pattern is
// not realizable.
func Build(m *pram.Machine, pattern []int) (*tree.Node, int, error) {
	if err := validate(pattern); err != nil {
		return nil, 0, err
	}
	defer m.Phase("leafpattern.Build")()
	cur := make([]leafRec, len(pattern))
	for i, l := range pattern {
		cur[i] = leafRec{level: l, id: i}
	}

	rounds := 0
	maxRounds := 2*xmath.CeilLog2(len(pattern)+1) + 8
	for !bitonicRecs(cur) {
		if rounds++; rounds > maxRounds {
			// Finger count halves every round; failure to converge would
			// mean a malformed reduction, not an infeasible input.
			panic("leafpattern: Finger-Reduction did not converge")
		}
		cur = reduceFingers(m, cur)
	}

	slab, off, _ := forests(m, cur, []finger{{hi: len(cur)}}) // one run, base 0
	if off[1] != 1 {
		return nil, rounds, ErrNoTree
	}
	return &slab[0], rounds, nil
}

// leafRec is a leaf of the current pattern: an input leaf with its
// position id, or a placeholder for the subtree root sub.
type leafRec struct {
	level int
	id    int
	sub   *tree.Node
}

func bitonicRecs(rs []leafRec) bool {
	i := 1
	for i < len(rs) && rs[i].level >= rs[i-1].level {
		i++
	}
	for ; i < len(rs); i++ {
		if rs[i].level > rs[i-1].level {
			return false
		}
	}
	return true
}

// finger is a bitonic run of records rs[lo:hi], built on levels relative
// to its base β.
type finger struct{ lo, hi, β int }

// forests builds the minimal forest of every finger in one link call.
// Finger r's roots are slab[off[base[r]]:off[base[r]+1]]. Then one
// statement grafts the leaves: a leaf made for an input record takes its
// id, and a placeholder's leaf becomes its subtree root.
func forests(m *pram.Machine, rs []leafRec, fs []finger) ([]tree.Node, []int, []int) {
	k := 0
	for _, f := range fs {
		k += f.hi - f.lo
	}
	levels, recs := make([]int, 0, k), make([]leafRec, 0, k)
	runs := make([]int, 3*len(fs)+2)
	start, peak, base := runs[:len(fs)+1], runs[len(fs)+1:2*len(fs)+1], runs[2*len(fs)+1:]
	for r, f := range fs {
		start[r] = len(levels)
		deep := f.lo
		for j := f.lo; j < f.hi; j++ {
			if rs[j].level > rs[deep].level {
				deep = j
			}
			levels = append(levels, rs[j].level-f.β)
			recs = append(recs, rs[j])
		}
		peak[r] = start[r] + deep - f.lo
		base[r+1] = base[r] + rs[deep].level - f.β + 1
	}
	start[len(fs)] = k
	slab, off := link(m, levels, start, peak, base)
	m.For(len(slab), func(v int) {
		node := &slab[v]
		if node.Left != nil { // every internal node has a left child
			return
		}
		if rec := recs[node.Symbol]; rec.sub != nil {
			*node = *rec.sub
		} else {
			node.Symbol = rec.id
		}
	})
	return slab, off, base
}

// segment is a maximal run of equal-level leaf records [lo, hi).
type segment struct {
	level  int
	lo, hi int
}

func segments(rs []leafRec) []segment {
	var segs []segment
	for i := 0; i < len(rs); {
		j := i
		for j < len(rs) && rs[j].level == rs[i].level {
			j++
		}
		segs = append(segs, segment{level: rs[i].level, lo: i, hi: j})
		i = j
	}
	return segs
}

// reduceFingers performs one simultaneous Finger-Reduction round.
//
// Min-point segments persist; every maximal run of non-min segments (a
// "mountain") contains exactly one finger: its records with level > β,
// where β is the higher of the two flanking min levels (β = the single
// flank at a pattern boundary). Following the paper's Finger-Reduction,
// the finger's K = ⌈Σ 2^{-(l-β)}⌉ packed subtrees become K placeholder
// leaves at level β in the reduced pattern; mountain records at level ≤ β
// (the tails next to the lower flank) stay as they are.
func reduceFingers(m *pram.Machine, rs []leafRec) []leafRec {
	segs := segments(rs)
	n := len(segs)

	isMin := make([]bool, n)
	for s := 0; s < n; s++ {
		leftHigher := s == 0 || segs[s-1].level > segs[s].level
		rightHigher := s == n-1 || segs[s+1].level > segs[s].level
		isMin[s] = leftHigher && rightHigher
	}

	var fs []finger
	for s := 0; s < n; {
		if isMin[s] {
			s++
			continue
		}
		e := s
		for e < n && !isMin[e] {
			e++
		}
		// Flanking bases; the whole pattern being one mountain is the
		// bitonic case the caller already excluded, so at least one flank
		// exists here.
		β := -1
		if s > 0 {
			β = segs[s-1].level
		}
		if e < n && segs[e].level > β {
			β = segs[e].level
		}
		f := finger{lo: segs[s].lo, hi: segs[e-1].hi, β: β}
		for rs[f.lo].level <= β {
			f.lo++
		}
		for rs[f.hi-1].level <= β {
			f.hi--
		}
		fs = append(fs, f)
		s = e
	}

	slab, off, base := forests(m, rs, fs)
	out := make([]leafRec, 0, len(rs))
	prev := 0
	for r, f := range fs {
		out = append(out, rs[prev:f.lo]...) // min-points and ≤ β tails
		for v := off[base[r]]; v < off[base[r]+1]; v++ {
			out = append(out, leafRec{level: f.β, sub: &slab[v]})
		}
		prev = f.hi
	}
	return append(out, rs[prev:]...)
}

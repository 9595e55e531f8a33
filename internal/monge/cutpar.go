package monge

import (
	"partree/internal/faultpoint"
	"partree/internal/matrix"
	"partree/internal/pram"
	"partree/internal/tune"
)

// CutRecursivePar is the PRAM version of CutRecursive: every interpolation
// phase is one parallel statement over its hull entries (one virtual
// processor per entry that can be finite, each doing its
// monotonicity-bracketed scan), matching the paper's CREW schedule. The
// recursion depth is min(⌈log p⌉, ⌈log r⌉), and each level issues O(1)
// parallel statements, so the counted step depth on an unbounded machine
// is O(min(log p, log r)); with the bracketed scans costing O(log q) …
// O(q) each, the CREW time bound of Theorem 4.1 follows.
func CutRecursivePar(m *pram.Machine, a, b *matrix.Dense, cnt *matrix.OpCount) *matrix.IntMat {
	defer m.Phase("monge.MulPar")()
	c := newMulCtx(a, b, cnt)
	defer c.close()
	return cutRecStridedPar(m, c, 1, 1, tune.Active().Tuned.MongeSerialEntries)
}

// cutRecStridedPar is cutRecStrided with each phase issued as one parallel
// statement over its view's compact index space: one virtual processor per
// hull entry, so a statement whose view has no hull entry records no step.
func cutRecStridedPar(m *pram.Machine, c *mulCtx, rs, cs, serial int) (out *matrix.IntMat) {
	// A cancellation checkpoint inside any of the statements below unwinds
	// through this frame; the live pooled intermediates must go back to
	// the arena on the way up (Release is nil-safe, and normally-released
	// locals are nil'd so the abort path never double-releases).
	var ee, eb *matrix.IntMat
	defer func() {
		if rec := recover(); rec != nil {
			ee.Release()
			eb.Release()
			out.Release()
			panic(rec)
		}
	}()
	faultpoint.Hit("monge.cutpar.level")

	p := stridedCount(c.a.R, rs)
	r := stridedCount(c.b.C, cs)

	// The serial-cutover threshold is read once per product: levels with
	// at most this many entries run the serial strided recursion in place
	// of the parallel one (same mulCtx, same phases, same comparison
	// counts) for one counted step, skipping the per-statement dispatch
	// that dominates small subproblems.
	if serial > 0 && p*r <= serial {
		out = cutRecStrided(c, rs, cs)
		m.Step(1)
		return out
	}

	if p == 1 || r == 1 {
		var n int
		out, n = c.newCut(rs, cs)
		m.ForRange(n, func(lo, hi int) { c.fullScans(out, rs, cs, lo, hi) })
		return out
	}

	ee = cutRecStridedPar(m, c, 2*rs, 2*cs, serial)

	eb, n := c.newCut(2*rs, cs)
	m.ForRange(n, func(lo, hi int) { c.oddCols(eb, ee, 2*rs, cs, lo, hi) })
	// ForRange barriers before returning, so every reader of ee is done.
	ee.Release()
	ee = nil

	out, n = c.newCut(rs, cs)
	m.ForRange(n, func(lo, hi int) { c.oddRows(out, eb, rs, cs, lo, hi) })
	eb.Release()
	eb = nil
	return out
}

// MulPar computes the (min,+) product of two concave matrices on a PRAM,
// returning the product and its cut table. The final value reconstruction
// is one additional parallel statement over the hull entries (O(1) time
// with p·r processors, as the paper notes); every other entry stays +∞.
func MulPar(m *pram.Machine, a, b *matrix.Dense, cnt *matrix.OpCount) (*matrix.Dense, *matrix.IntMat) {
	defer m.Phase("monge.MulPar")()
	c := newMulCtx(a, b, cnt)
	defer c.close()
	cut := cutRecStridedPar(m, c, 1, 1, tune.Active().Tuned.MongeSerialEntries)
	out := matrix.NewInfFromPool(cut.R, cut.C)
	defer func() {
		if rec := recover(); rec != nil {
			out.Release()
			cut.Release()
			panic(rec)
		}
	}()
	n := c.index(1, 1)
	m.ForRange(n, func(lo, hi int) { c.values(out, cut, lo, hi) })
	return out, cut
}

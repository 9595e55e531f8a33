package monge

import (
	"sync/atomic"

	"partree/internal/matrix"
	"partree/internal/pram"
	"partree/internal/xmath"
)

// CutBottomUpCRCW is the common-CRCW realization of Theorem 4.1's second
// bound: O((log log n)²) time with n²/log log n processors. It follows
// the Section 4.2 bottom-up schedule — O(log log n) stride-refinement
// levels — but evaluates every level's bracketed minima with the
// doubly-logarithmic all-pairs elimination (O(log log n) synchronized
// CRCW rounds for all entries at once) instead of the CREW sequential
// scans, so the counted statement depth is O((log log n)²).
//
// Results are identical to CutRecursive/CutBottomUp/brute force on
// concave inputs; cnt counts comparisons (the all-pairs rounds cost a
// constant factor more than the scans, still O(n²) per level).
func CutBottomUpCRCW(mach *pram.Machine, a, b *matrix.Dense, cnt *matrix.OpCount) *matrix.IntMat {
	c := newMulCtx(a, b, cnt)
	defer c.close()
	return c.bottomUpCRCW(mach)
}

// MulCRCW is MulPar with the cut computed by CutBottomUpCRCW: the product
// behind BuildConcaveCRCW. One more statement lays the cut table out on
// the output hull and fills the product's values there.
func MulCRCW(mach *pram.Machine, a, b *matrix.Dense, cnt *matrix.OpCount) (*matrix.Dense, *matrix.IntMat) {
	c := newMulCtx(a, b, cnt)
	defer c.close()
	full := c.bottomUpCRCW(mach)
	cut := c.newCut(1, 1)
	defer func() {
		if rec := recover(); rec != nil {
			full.Release()
			cut.Release()
			panic(rec)
		}
	}()
	mach.ForRange(cut.Len(), func(lo, hi int) {
		cut.Walk(lo, hi, func(i, j0, j1 int) {
			for j := j0; j < j1; j++ {
				cut.Set(i, j, full.At(i, j))
			}
		})
	})
	full.Release()
	full = nil
	done := cut
	cut = nil // valuesPar releases it on unwind from here
	return c.valuesPar(mach, done), done
}

func (c *mulCtx) bottomUpCRCW(mach *pram.Machine) *matrix.IntMat {
	defer mach.Phase("monge.CutBottomUpCRCW")()
	p, q, r := c.a.R, c.a.C, c.b.C

	L := xmath.CeilLog2(xmath.MaxInt(xmath.MaxInt(p, r), 2))
	e := (L + 1) / 2
	s := 1 << e

	// First level: brute grid, all entries minimized simultaneously.
	pg, rg := stridedCount(p, s), stridedCount(r, s)
	grid := matrix.NewIntFromPool(pg, rg)
	// Cancellation unwinds through the multiMin statements below; release
	// whichever level tables are live (normally-released ones are nil'd).
	var rows, gridNext *matrix.IntMat
	defer func() {
		if rec := recover(); rec != nil {
			grid.Release()
			rows.Release()
			gridNext.Release()
			panic(rec)
		}
	}()
	var entries []minEntry
	for ii := 0; ii < pg; ii++ {
		for jj := 0; jj < rg; jj++ {
			entries = append(entries, minEntry{i: ii * s, j: jj * s, lo: 0, hi: q - 1})
		}
	}
	for k, arg := range c.multiMin(mach, entries) {
		grid.Set(k/rg, k%rg, arg)
	}

	rows = widenColumnsCRCW(mach, c, grid, s, s)
	grid.Release()
	grid = nil
	for s > 1 {
		sNext := 1 << (uint(e) / 2)
		e /= 2
		gridNext = refineRowsCRCW(mach, c, rows, s, sNext)
		rows.Release()
		rows = nil
		rows = widenColumnsCRCW(mach, c, gridNext, sNext, sNext)
		gridNext.Release()
		gridNext = nil
		s = sNext
	}
	return rows
}

// minEntry is one bracketed argmin problem: minimize A[i][k]+B[k][j] over
// k ∈ [lo, hi] (further clamped by the finite-support envelope).
type minEntry struct{ i, j, lo, hi int }

// multiMin solves all entries simultaneously with synchronized
// doubly-logarithmic rounds: every round eliminates within groups by
// all-pairs comparisons (common concurrent writes of "loser" flags), so
// the number of parallel statements is 2·max-rounds = O(log log n)
// regardless of the number of entries. Returns the smallest argmin per
// entry (-1 when every candidate is +∞).
func (c *mulCtx) multiMin(mach *pram.Machine, entries []minEntry) []int {
	type state struct{ cands []int32 }
	states := make([]state, len(entries))
	budget := make([]int, len(entries)) // original candidate count n_e
	for eIdx, en := range entries {
		lo, hi := c.clamp(en.i, en.j, en.lo, en.hi)
		if lo > hi {
			continue // no finite candidate: argmin stays undefined
		}
		cs := make([]int32, hi-lo+1)
		for k := range cs {
			cs[k] = int32(lo + k)
		}
		states[eIdx].cands = cs
		budget[eIdx] = len(cs)
	}

	for {
		// Lay out this round's elimination slots: entry e with s_e > 1
		// candidates uses groups of size g_e = clamp(budget_e/s_e, 2, s_e).
		type lay struct {
			entry int
			g     int
			off   int // start of the entry's slot range
		}
		var lays []lay
		total := 0
		for eIdx := range states {
			s := len(states[eIdx].cands)
			if s <= 1 {
				continue
			}
			g := budget[eIdx] / s
			if g < 2 {
				g = 2
			}
			if g > s {
				g = s
			}
			lays = append(lays, lay{entry: eIdx, g: g, off: total})
			total += s * g
		}
		if len(lays) == 0 {
			break
		}
		// Map every slot to its (entry, candidate, opponent). A real CRCW
		// machine indexes this layout with a prefix sum; the counted cost
		// here is the single parallel statement plus one compaction.
		// Concurrent writers all store the same value; Go's memory model
		// still requires the stores to be atomic (the common-CRCW write).
		losers := make([][]int32, len(entries))
		for _, l := range lays {
			losers[l.entry] = make([]int32, len(states[l.entry].cands))
		}
		// Flatten via a host-side index: find the layout segment per slot
		// with binary search over offsets.
		offs := make([]int, len(lays))
		for i, l := range lays {
			offs[i] = l.off
		}
		mach.For(total, func(slot int) {
			// Locate the segment (binary search on offs).
			lo, hi := 0, len(offs)-1
			for lo < hi {
				mid := (lo + hi + 1) / 2
				if offs[mid] <= slot {
					lo = mid
				} else {
					hi = mid - 1
				}
			}
			l := lays[lo]
			st := &states[l.entry]
			rel := slot - l.off
			i := rel / l.g
			o := rel % l.g
			grp := i / l.g
			j := grp*l.g + o
			if j >= len(st.cands) || j == i {
				return
			}
			en := entries[l.entry]
			ki, kj := int(st.cands[i]), int(st.cands[j])
			vi := c.a.At(en.i, ki) + c.b.At(ki, en.j)
			vj := c.a.At(en.i, kj) + c.b.At(kj, en.j)
			if vj < vi || (vj == vi && kj < ki) {
				atomic.StoreInt32(&losers[l.entry][i], 1)
			}
		})
		cnt := int64(total)
		c.cnt.Add(cnt)
		// Compact survivors (the paper charges this to the same round).
		mach.For(len(lays), func(x int) {
			l := lays[x]
			st := &states[l.entry]
			out := st.cands[:0]
			for i, k := range st.cands {
				if losers[l.entry][i] == 0 {
					out = append(out, k)
				}
			}
			st.cands = out
		})
	}

	res := make([]int, len(entries))
	for eIdx := range entries {
		if len(states[eIdx].cands) == 1 {
			res[eIdx] = int(states[eIdx].cands[0])
		} else {
			res[eIdx] = -1
		}
	}
	return res
}

// widenColumnsCRCW is widenColumns with all bracketed minima of the phase
// solved by one multiMin call.
func widenColumnsCRCW(mach *pram.Machine, c *mulCtx, grid *matrix.IntMat, rs, cs int) *matrix.IntMat {
	p := stridedCount(c.a.R, rs)
	r := c.b.C
	q := c.a.C
	out := matrix.NewIntFromPool(p, r)
	defer func() {
		if rec := recover(); rec != nil {
			out.Release()
			panic(rec)
		}
	}()
	var entries []minEntry
	var where [][2]int
	for ii := 0; ii < p; ii++ {
		for j := 0; j < r; j++ {
			if j%cs == 0 {
				out.Set(ii, j, grid.At(ii, j/cs))
				continue
			}
			lo, hi := 0, q-1
			if k := grid.At(ii, j/cs); k >= 0 {
				lo = k
			}
			if nj := j/cs + 1; nj < grid.C {
				if k := grid.At(ii, nj); k >= 0 {
					hi = k
				}
			}
			entries = append(entries, minEntry{i: ii * rs, j: j, lo: lo, hi: hi})
			where = append(where, [2]int{ii, j})
		}
	}
	for x, arg := range c.multiMin(mach, entries) {
		out.Set(where[x][0], where[x][1], arg)
	}
	return out
}

// refineRowsCRCW is refineRows with phase-level multiMin.
func refineRowsCRCW(mach *pram.Machine, c *mulCtx, rows *matrix.IntMat, s, sNext int) *matrix.IntMat {
	p := stridedCount(c.a.R, sNext)
	r := stridedCount(c.b.C, sNext)
	q := c.a.C
	out := matrix.NewIntFromPool(p, r)
	defer func() {
		if rec := recover(); rec != nil {
			out.Release()
			panic(rec)
		}
	}()
	var entries []minEntry
	var where [][2]int
	for ii := 0; ii < p; ii++ {
		i := ii * sNext
		if i%s == 0 {
			for jj := 0; jj < r; jj++ {
				out.Set(ii, jj, rows.At(i/s, jj*sNext))
			}
			continue
		}
		for jj := 0; jj < r; jj++ {
			j := jj * sNext
			lo, hi := 0, q-1
			if k := rows.At(i/s, j); k >= 0 {
				lo = k
			}
			if ni := i/s + 1; ni < rows.R {
				if k := rows.At(ni, j); k >= 0 {
					hi = k
				}
			}
			entries = append(entries, minEntry{i: i, j: j, lo: lo, hi: hi})
			where = append(where, [2]int{ii, jj})
		}
	}
	for x, arg := range c.multiMin(mach, entries) {
		out.Set(where[x][0], where[x][1], arg)
	}
	return out
}

package tune

import (
	"math/bits"
	"runtime"
	"time"

	"partree/internal/pram"
)

// Config controls a calibration run.
type Config struct {
	// Quick trades precision for speed: fewer repetitions and smaller
	// sweep inputs. Meant for tests and CI smoke runs; production
	// profiles should use the full sweep.
	Quick bool
}

// Calibrate micro-benchmarks the running host and derives a complete
// tuning profile. The sweep is deterministic (fixed inputs, fixed
// repetition counts, best-of-reps timing, no RNG beyond a fixed-seed
// xorshift for matrix fill) and self-contained: it builds its own PRAM
// machines and touches no global state, so it is safe to run concurrently
// with live traffic and install the result with SetActive afterwards.
//
// Full sweeps take well under a second on anything resembling a server;
// Quick sweeps take a few tens of milliseconds.
func Calibrate(cfg Config) *Profile {
	reps := 5
	if cfg.Quick {
		reps = 2
	}
	host := currentHost()
	ms := Measured{
		LoopNs:   measureLoop(reps, cfg.Quick),
		ScanNs:   measureScan(reps, cfg.Quick),
		WordNs:   measureWord(reps, cfg.Quick),
		RowNs:    measureRow(reps, cfg.Quick),
		InlineNs: measureInline(reps),
	}
	ms.DispatchNs = measureDispatch(reps, ms.InlineNs)
	t := derive(ms)
	t.BoolmatKTileBytes = sweepKTile(cfg.Quick)
	return &Profile{
		Version:   CurrentVersion,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Source:    "calibrated",
		Host:      host,
		Measured:  ms,
		Tuned:     t,
	}
}

// derive maps raw measurements to tuned knobs. Every formula is clamped
// to a sane range well inside Validate's hard bounds, so a pathological
// measurement (a descheduled timing, a zero) can only cost performance,
// never correctness.
func derive(ms Measured) Tuned {
	// A serial cutover pays off once the statement's whole body, run
	// serially, costs less than roughly the dispatch it avoids; cutting
	// over a little early (2×) also skips the statements the subtree
	// below would have issued.
	serialNs := 2 * ms.DispatchNs
	return Tuned{
		GrainTargetNs: clampI(int(25*ms.DispatchNs), 50_000, 200_000),

		// Filled by sweepKTile (measured directly, not derived).
		BoolmatKTileBytes: 1 << 18,

		BoolmatSerialWords: clampI(int(serialNs/nonzero(ms.WordNs, 0.05)), 2_048, 1<<20),
		MongeSerialEntries: clampI(int(serialNs/nonzero(ms.ScanNs, 0.1)), 1_024, 65_536),
	}
}

func clampI(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// nonzero guards division by a measurement that came back ~0.
func nonzero(v, floor float64) float64 {
	if v < floor {
		return floor
	}
	return v
}

// sink defeats dead-code elimination across the measurement loops.
var sink float64

var sinkWord uint64

// bestOf runs f reps times and returns the minimum — the least-disturbed
// sample, the standard defense against scheduler noise in microbenches.
func bestOf(reps int, f func() float64) float64 {
	best := f()
	for i := 1; i < reps; i++ {
		if v := f(); v < best {
			best = v
		}
	}
	return best
}

// measureLoop times the dense-DP body shape: one float multiply-add per
// element. Returns ns/element.
func measureLoop(reps int, quick bool) float64 {
	n := 1 << 16
	if quick {
		n = 1 << 14
	}
	return bestOf(reps, func() float64 {
		acc := 0.0
		start := time.Now()
		for i := 0; i < n; i++ {
			acc += float64(i)*1.0000001 + 0.5
		}
		el := time.Since(start)
		sink += acc
		return float64(el.Nanoseconds()) / float64(n)
	})
}

// measureScan times monge's body shape: bracketed argmin scans over a
// float table. Returns ns per scanned element.
func measureScan(reps int, quick bool) float64 {
	n := 1 << 14
	if quick {
		n = 1 << 12
	}
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64((i*2654435761)%4096) * 0.001
	}
	const bracket = 8
	return bestOf(reps, func() float64 {
		argAcc := 0
		start := time.Now()
		for i := 0; i < n; i++ {
			lo := (i * 613) & (len(vals) - bracket - 1)
			best, arg := vals[lo], lo
			for k := lo + 1; k < lo+bracket; k++ {
				if vals[k] < best {
					best, arg = vals[k], k
				}
			}
			argAcc += arg
		}
		el := time.Since(start)
		sink += float64(argAcc)
		return float64(el.Nanoseconds()) / float64(n*bracket)
	})
}

// measureWord times the boolmat inner unit: one 64-bit OR plus the load
// and store around it. Returns ns/word.
func measureWord(reps int, quick bool) float64 {
	words := 1 << 12
	iters := 64
	if quick {
		iters = 16
	}
	src := make([]uint64, words)
	dst := make([]uint64, words)
	for i := range src {
		src[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	return bestOf(reps, func() float64 {
		start := time.Now()
		for it := 0; it < iters; it++ {
			for i := 0; i < words; i++ {
				dst[i] |= src[i]
			}
			dst[it&(words-1)] = 0 // keep the OR from becoming a no-op
		}
		el := time.Since(start)
		sinkWord += dst[0]
		return float64(el.Nanoseconds()) / float64(words*iters)
	})
}

// measureRow times one boolmat-style row OR: 32 packed words ORed into an
// accumulator row, the per-index unit of MulPar under lincfl's block
// sizes. Returns ns/row.
func measureRow(reps int, quick bool) float64 {
	const rowWords = 32
	rows := 1 << 10
	if quick {
		rows = 1 << 8
	}
	b := make([]uint64, 64*rowWords)
	for i := range b {
		b[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	acc := make([]uint64, rowWords)
	return bestOf(reps, func() float64 {
		start := time.Now()
		for r := 0; r < rows; r++ {
			row := b[(r&63)*rowWords : (r&63+1)*rowWords]
			for x := range acc {
				acc[x] |= row[x]
			}
		}
		el := time.Since(start)
		sinkWord += acc[0]
		return float64(el.Nanoseconds()) / float64(rows)
	})
}

// measureInline times the For fast path: a statement that fits one chunk
// runs inline on the caller, paying only the machine's bookkeeping.
// Returns ns/statement.
func measureInline(reps int) float64 {
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(1<<16))
	defer m.Close()
	var c int64
	m.For(64, func(i int) { c++ }) // warm the path
	const iters = 2_000
	return bestOf(reps, func() float64 {
		start := time.Now()
		for it := 0; it < iters; it++ {
			m.For(64, func(i int) { c++ })
		}
		el := time.Since(start)
		sink += float64(c)
		return float64(el.Nanoseconds()) / float64(iters)
	})
}

// measureDispatch times a genuinely parallel statement on the resident
// pool — partition, wake, execute, barrier — and subtracts the inline
// bookkeeping floor, leaving the cost the serial cutovers can avoid.
// Returns ns/statement.
func measureDispatch(reps int, inlineNs float64) float64 {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	if w > 8 {
		w = 8
	}
	grain := 64 / w
	if grain < 1 {
		grain = 1
	}
	m := pram.New(pram.WithWorkers(w), pram.WithGrain(grain))
	defer m.Close()
	var c [64]int64
	m.For(64, func(i int) { c[i]++ }) // spawn the pool outside the timing
	const iters = 1_000
	per := bestOf(reps, func() float64 {
		start := time.Now()
		for it := 0; it < iters; it++ {
			m.For(64, func(i int) { c[i]++ })
		}
		el := time.Since(start)
		return float64(el.Nanoseconds()) / float64(iters)
	})
	sink += float64(c[0])
	d := per - inlineNs
	if d < 0 {
		d = 0
	}
	return d
}

// sweepKTile measures the blocked Boolean multiply's cache behaviour
// directly: a local replica of boolmat's k-tiled kernel (row-major packed
// words, zero-skip via trailing-zero scans) multiplies a fixed
// pseudo-random matrix by itself under each candidate budget, and the
// fastest budget wins. Replicating ~30 lines here keeps tune free of a
// boolmat dependency (boolmat imports tune for its tuned values).
func sweepKTile(quick bool) int {
	n := 768
	reps := 3
	if quick {
		n = 384
		reps = 1
	}
	words := (n + 63) >> 6
	a := make([]uint64, n*words)
	st := uint64(0x243f6a8885a308d3)
	for i := range a {
		// xorshift64*: fixed seed, ~6% density after masking.
		st ^= st >> 12
		st ^= st << 25
		st ^= st >> 27
		v := st * 0x2545f4914f6cdd1d
		a[i] = v & (v >> 1) & (v >> 2) & (v >> 3)
	}
	out := make([]uint64, n*words)
	mulBudget := func(budget int) time.Duration {
		for i := range out {
			out[i] = 0
		}
		kt := budget / (words * 8)
		kt &^= 63
		if kt < 64 {
			kt = 64
		}
		start := time.Now()
		for k0 := 0; k0 < n; k0 += kt {
			k1 := k0 + kt
			if k1 > n {
				k1 = n
			}
			w0, w1 := k0>>6, (k1+63)>>6
			for i := 0; i < n; i++ {
				arow := a[i*words : (i+1)*words]
				orow := out[i*words : (i+1)*words]
				for w := w0; w < w1; w++ {
					bw := arow[w]
					for bw != 0 {
						k := w<<6 + bits.TrailingZeros64(bw)
						bw &= bw - 1
						brow := a[k*words : (k+1)*words]
						for x := range orow {
							orow[x] |= brow[x]
						}
					}
				}
			}
		}
		return time.Since(start)
	}
	candidates := []int{1 << 17, 1 << 18, 1 << 19, 1 << 20}
	best, bestT := 1<<18, time.Duration(1<<62)
	for _, budget := range candidates {
		t := mulBudget(budget)
		for r := 1; r < reps; r++ {
			if tr := mulBudget(budget); tr < t {
				t = tr
			}
		}
		if t < bestT {
			best, bestT = budget, t
		}
	}
	sinkWord += out[0]
	return best
}

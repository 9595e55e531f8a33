package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"partree"
)

// lib-par: one caller of the façade with nproc workers, running a fixed
// suite of the paper's four parallel constructions. All the time goes to
// the PRAM runtime and the kernels; the service and gateway do nothing.
const (
	libInstances = 4 // suite inputs, used in turn
	libEps       = 1e-6
	libMemAt     = 12 // first heap mark; the last, 24, comes within 10 s at 2.5 ops/s
)

// The suite's kernels, in call order.
var libKernels = []string{"lincfl", "hufpar", "obst", "leafpattern"}

type suiteInput struct {
	word   []byte
	accept bool
	freqs  []float64
	hufOpt float64
	bst    *partree.BSTInstance
	bstOpt float64
	depths []int
}

// kcall is one traced kernel call.
type kcall struct {
	dur    time.Duration
	allocs uint64
	st     partree.Stats
	count  int64 // lincfl word ops, hufpar comparisons
}

type libPar struct {
	p     params
	in    []suiteInput
	opts  partree.Options
	calls [][4]kcall // per traced op
}

func newLibPar(p params) *workload {
	rng := rand.New(rand.NewSource(p.seed))
	l := &libPar{p: p, opts: partree.Options{Workers: p.nproc}}
	for k := 0; k < libInstances; k++ {
		var in suiteInput
		// Thm 8.1: a palindrome-grammar word of 257 letters, half accepted.
		in.word = palindromeWord(rng, 257, k%2 == 0)
		in.accept = partree.RecognizeLinear(palindrome, in.word)
		// Thm 5.1: 256 integer frequencies.
		for _, w := range intWeights(rng, 256, 1, 1000) {
			in.freqs = append(in.freqs, float64(w))
		}
		in.hufOpt = partree.HuffmanCost(in.freqs)
		// Thm 6.1: 128 keys.
		in.bst = bstInstance(intWeights(rng, 128, 1, 1000), intWeights(rng, 129, 0, 1000))
		in.bstOpt, _ = partree.OptimalBST(in.bst)
		// Thm 7.1: a monotone pattern of 32768 leaves with Kraft sum 1,
		// the sorted Huffman code lengths of log-normal weights.
		w := make([]float64, 1<<15)
		for i := range w {
			w[i] = math.Exp(2 * rng.NormFloat64())
		}
		in.depths = partree.CodeLengths(partree.HuffmanTree(w), len(w))
		sort.Ints(in.depths)
		l.in = append(l.in, in)
	}
	// A suite pass takes a few hundred ms, so the timed phase never
	// needs more ops than this.
	ops := int(p.seconds*200) + 1
	if p.traced {
		l.calls = make([][4]kcall, ops)
	}
	return &workload{sys: l, ops: ops, callers: 1, memAt: libMemAt, ref: computeRef, opName: "pass of the four-kernel suite"}
}

// setup is one untimed suite pass from a cold machine pool.
func (l *libPar) setup() error {
	_, err := l.suite(0, nil)
	check(err)
	return nil
}

func (l *libPar) teardown() { partree.DrainMachinePool() }

func (l *libPar) op(i int, traced bool) (time.Duration, error) {
	var rec *[4]kcall
	if traced {
		rec = &l.calls[i]
	}
	return l.suite(i%libInstances, rec)
}

// suite runs the four constructions on input k and checks their answers
// after the clock stops. A non-nil rec gets each call's span, allocation
// count and statistics.
func (l *libPar) suite(k int, rec *[4]kcall) (time.Duration, error) {
	in := &l.in[k]
	var cfl *partree.LinearRecognitionResult
	var huf *partree.HuffmanParallelResult
	var bst *partree.ApproxBSTResult
	var t *partree.Tree
	var terr error
	t0 := now()
	l.call(rec, 0, func() (partree.Stats, int64) {
		cfl = partree.RecognizeLinearParallel(palindrome, in.word, l.opts)
		return cfl.Stats, cfl.WordOps
	})
	l.call(rec, 1, func() (partree.Stats, int64) {
		huf = partree.HuffmanParallel(in.freqs, l.opts)
		return huf.Stats, huf.Comparisons
	})
	l.call(rec, 2, func() (partree.Stats, int64) {
		bst = partree.ApproxBST(in.bst, libEps, l.opts)
		return bst.Stats, bst.Comparisons
	})
	l.call(rec, 3, func() (partree.Stats, int64) {
		var st partree.Stats
		t, st, terr = partree.TreeFromMonotoneDepths(in.depths, l.opts)
		return st, 0
	})
	lat := now() - t0

	if cfl.Accepted != in.accept {
		return lat, fmt.Errorf("lincfl: answer differs from the sequential recognizer (%v)", in.accept)
	}
	if !near(huf.Cost, in.hufOpt) || !near(weightedDepth(huf.Tree, in.freqs), in.hufOpt) {
		return lat, fmt.Errorf("hufpar: cost %v, optimum %v", huf.Cost, in.hufOpt)
	}
	if c := partree.BSTCost(in.bst, bst.Tree); c < in.bstOpt-1e-9 || c > in.bstOpt+libEps+1e-9 {
		return lat, fmt.Errorf("obst: approximate tree costs %v, optimum %v, ε %v", c, in.bstOpt, libEps)
	}
	if terr != nil || !equalInts(t.LeafDepths(), in.depths) {
		return lat, fmt.Errorf("leafpattern: leaf depths differ from the monotone pattern (%v)", terr)
	}
	return lat, nil
}

// call runs kernel j, recording it into rec when rec is non-nil.
func (l *libPar) call(rec *[4]kcall, j int, f func() (partree.Stats, int64)) {
	if rec == nil {
		f()
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	t0 := now()
	st, n := f()
	d := now() - t0
	runtime.ReadMemStats(&ms)
	rec[j] = kcall{dur: d, allocs: ms.Mallocs - m0, st: st, count: n}
}

// weightedDepth is Σ freq·depth over the tree's leaves.
func weightedDepth(t *partree.Tree, freqs []float64) float64 {
	leaves, depths := t.Leaves(), t.LeafDepths()
	sum := 0.0
	for i, leaf := range leaves {
		sum += freqs[leaf.Symbol] * float64(depths[i])
	}
	return sum
}

func (l *libPar) counters(map[string]float64) {}

func (l *libPar) layers(out metrics, _ deltas, recs []opRecord) {
	var suites []time.Duration
	perKernel := make([][]kcall, len(libKernels))
	for i, r := range recs {
		if !r.traced || !r.ok {
			continue
		}
		suites = append(suites, r.lat)
		for j := range libKernels {
			perKernel[j] = append(perKernel[j], l.calls[i][j])
		}
	}
	var self []layerSelf
	for j, name := range libKernels {
		calls := perKernel[j]
		var durs []time.Duration
		var allocs, steals []float64
		var busy, barrier, stealWait time.Duration
		var counted int64
		for _, c := range calls {
			durs = append(durs, c.dur)
			allocs = append(allocs, float64(c.allocs))
			steals = append(steals, float64(c.st.Steals))
			for _, ph := range c.st.Phases {
				busy += ph.Busy
			}
			barrier += c.st.BarrierWait
			stealWait += c.st.StealWait
			counted += c.count
		}
		self = append(self, layerSelf{name + ".call", durs})
		out.set(name+".call_ms", medianUS(durs)/1e3)
		out.set(name+".allocs_per_call", median(allocs))
		out.set("pram.steals."+name, median(steals))
		workerTime := float64(busy + barrier + stealWait)
		out.set("pram.barrier_wait_frac."+name, float64(barrier)/workerTime)
		out.set("pram.steal_wait_frac."+name, float64(stealWait)/workerTime)
		if name == "lincfl" {
			var secs float64
			for _, d := range durs {
				secs += d.Seconds()
			}
			out.set("lincfl.word_ops_per_s", float64(counted)/secs)
		}
	}
	fmt.Printf("kernel calls (median over %d traced suite passes):\n", len(suites))
	sum := 0.0
	for _, s := range self {
		v := medianUS(s.self)
		sum += v
		fmt.Printf("  %-30s %10.1f us\n", s.name, v)
	}
	suiteUS := medianUS(suites)
	out.set("trace.residual_us", suiteUS-sum)
	fmt.Printf("  %-30s %10.1f us of a %.1f us suite pass\n", "residual", suiteUS-sum, suiteUS)

	// Counted quantities are properties of the inputs, not of the run:
	// one probe pass over every instance gives their exact per-call mean.
	var probe [4]kcall
	var steps, work [4]int64
	var wordOps, comps int64
	for k := range l.in {
		_, err := l.suite(k, &probe)
		check(err)
		for j := range libKernels {
			steps[j] += probe[j].st.Steps
			work[j] += probe[j].st.Work
		}
		wordOps += probe[0].count
		comps += probe[1].count
	}
	n := float64(len(l.in))
	for j, name := range libKernels {
		out.set("pram.steps."+name, float64(steps[j])/n)
		out.set("pram.work."+name, float64(work[j])/n)
	}
	out.set("lincfl.word_ops", float64(wordOps)/n)
	out.set("hufpar.comparisons", float64(comps)/n)
}

func (l *libPar) writeSpans(enc *json.Encoder) error {
	return writeJSONLines(enc, len(l.calls), func(i int) any {
		c := l.calls[i]
		if c[0].dur == 0 {
			return nil
		}
		row := map[string]any{"op": i}
		for j, name := range libKernels {
			row[name] = map[string]any{"dur_us": float64(c[j].dur) / 1e3, "allocs": c[j].allocs,
				"steps": c[j].st.Steps, "work": c[j].st.Work, "steals": c[j].st.Steals}
		}
		return row
	})
}

// Command benchtables regenerates every experiment table recorded in
// EXPERIMENTS.md: one table per theorem of the paper (the paper, a theory
// paper, has no empirical tables of its own — its evaluation is its
// theorems, which these tables check empirically). Run with no arguments
// for all experiments, or -exp E4 for a single one.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"partree"
	"partree/internal/boolmat"
	"partree/internal/cluster"
	"partree/internal/engine"
	"partree/internal/grammar"
	"partree/internal/huffman"
	"partree/internal/hufpar"
	"partree/internal/leafpattern"
	"partree/internal/lincfl"
	"partree/internal/matrix"
	"partree/internal/monge"
	"partree/internal/obst"
	wspool "partree/internal/pool"
	"partree/internal/pram"
	"partree/internal/serve"
	"partree/internal/shannonfano"
	"partree/internal/trace"
	"partree/internal/tree"
	"partree/internal/workload"
	"partree/internal/xmath"
)

var experiments = []struct {
	id    string
	title string
	run   func()
}{
	{"E1", "Lemma 2.1 — RAKE rounds on left-justified trees", e1},
	{"E2", "Theorem 4.1 — concave vs general (min,+) multiplication", e2},
	{"E3", "Theorem 3.1 — RAKE/COMPRESS Huffman DP rounds", e3},
	{"E4", "Theorem 5.1 — Huffman via concave matrix products", e4},
	{"E5", "Theorem 6.1 — approximately optimal search trees", e5},
	{"E6", "Theorems 7.1–7.3 — trees from leaf patterns", e6},
	{"E7", "Theorem 7.4 / Claim 7.1 — Shannon–Fano vs Huffman", e7},
	{"E8", "Theorem 8.1 — linear CFL recognition", e8},
	{"E9", "Runtime — chunk-cursor scheduler: speedup, overhead", e9},
	{"E10", "Service — request batching and result caching under load", e10},
	{"E11", "Workspace pooling — allocation profile of the pooled hot paths", e11},
	{"E12", "Multicore scaling — kernel speedup across worker counts", e12},
	{"E13", "Tracing — disarmed vs armed overhead on the gated hot paths", e13},
	{"E14", "Dispatch — resident worker pool cost per small statement", e14},
	{"E16", "Cluster — sharded gateway scaling and hedged tail latency", e16},
}

// Fixed grains per kernel family (pram.WithGrain) for the experiments
// that pin one. The grain is the number of indices a worker claims per
// chunk: the concave-matrix engines' comparison-only bodies want huge
// chunks, the dense DPs and hufpar's recurrences somewhat smaller ones,
// and the linear-CFL recursion's expensive Boolean block products small
// chunks that keep workers balanced.
const (
	grainMonge  = 2048
	grainDP     = 1024
	grainHufpar = 512
	grainLinCFL = 64
)

// shortMode shrinks problem sizes and timing loops (-short): the tables
// lose precision but the full suite fits in a CI budget.
var shortMode bool

func main() {
	sel := flag.String("exp", "", "comma-separated experiment ids to run (e.g. E11,E12); empty runs all")
	flag.BoolVar(&shortMode, "short", false, "smaller inputs and shorter timing loops (CI-friendly, noisier)")
	flag.Parse()

	wanted := map[string]bool{}
	for _, id := range strings.Split(*sel, ",") {
		if id = strings.TrimSpace(id); id != "" {
			wanted[strings.ToUpper(id)] = true
		}
	}
	known := map[string]bool{}
	for _, e := range experiments {
		known[strings.ToUpper(e.id)] = true
	}
	for id := range wanted {
		if !known[id] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(1)
		}
	}
	for _, e := range experiments {
		if len(wanted) > 0 && !wanted[strings.ToUpper(e.id)] {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.id, e.title)
		start := time.Now()
		e.run()
		fmt.Printf("(%.2fs)\n\n", time.Since(start).Seconds())
	}
}

func e1() {
	rng := rand.New(rand.NewSource(1))
	fmt.Printf("%8s %12s %14s %10s\n", "n", "rake-rounds", "⌊log₂ size⌋", "on-spine?")
	for _, n := range []int{64, 256, 1024, 4096, 16384} {
		t := tree.RandomLeftJustified(rng, n)
		rounds, chain := tree.RakeToChain(t)
		fmt.Printf("%8d %12d %14d %10v\n", n, rounds, xmath.FloorLog2(t.Size()), tree.IsChain(chain))
	}
	fmt.Println("claim: rounds ≤ ⌊log₂ n⌋ and the survivor is a chain (the leftmost path)")
}

func e2() {
	rng := rand.New(rand.NewSource(2))
	fmt.Printf("%6s %16s %16s %16s %10s %14s\n", "n", "brute cmp", "recursive cmp", "bottom-up cmp", "ratio", "crcw stmts")
	for _, n := range []int{64, 128, 256, 512, 1024} {
		a := monge.Random(rng, n, n, 100, 5)
		b := monge.Random(rng, n, n, 100, 5)
		var cb, cr, cu, cw matrix.OpCount
		matrix.MulBrute(a, b, &cb)
		monge.CutRecursive(a, b, &cr)
		monge.CutBottomUp(a, b, &cu)
		m := pram.New(pram.WithGrain(grainMonge))
		monge.CutBottomUpCRCW(m, a, b, &cw)
		fmt.Printf("%6d %16d %16d %16d %9.1fx %14d\n",
			n, cb.Load(), cr.Load(), cu.Load(), float64(cb.Load())/float64(cr.Load()),
			m.Counters().Steps)
	}
	fmt.Println("claim: concave comparisons grow ~n² (ratio to brute grows linearly);")
	fmt.Println("       CRCW statement depth stays (log log n)²-flat")
}

func e3() {
	fmt.Printf("%6s %10s %14s %16s\n", "n", "rounds", "2⌈log n⌉+1", "cost = optimal?")
	m := pram.New(pram.WithGrain(grainHufpar))
	for _, n := range []int{16, 64, 256} {
		w := workload.SortedAscending(workload.Zipf(n, 1.1))
		acc := pram.New()
		got := hufpar.CostRakeCompress(acc, w)
		_ = m
		want := huffman.Cost(w)
		fmt.Printf("%6d %10d %14d %16v\n", n, acc.Counters().Steps, 2*xmath.CeilLog2(n)+1,
			xmath.AlmostEqual(got, want, 1e-9))
	}
	fmt.Println("claim: O(log n) rounds, exact optimum")
}

func e4() {
	yes := map[bool]string{true: "yes", false: "no"}
	// Markdown rows, pasted as EXPERIMENTS.md's E4 table.
	fmt.Println("| n | comparisons / n² | CREW statements | CREW work | ~log² n | CRCW statements | optimal cost? | tree left-justified? |")
	fmt.Println("|---:|---:|---:|---:|---:|---:|:---|:---|")
	for _, n := range []int{64, 128, 256, 512} {
		w := workload.SortedAscending(workload.Zipf(n, 1.1))
		acc := pram.New()
		res := hufpar.BuildConcave(acc, w)
		crcw := pram.New()
		hufpar.BuildConcaveCRCW(crcw, w)
		want := huffman.Cost(w)
		l := xmath.CeilLog2(n)
		fmt.Printf("| %d | %.1f | %d | %d | %d | %d | %s | %s |\n",
			n, float64(res.Comparisons)/float64(n*n), acc.Counters().Steps, acc.Counters().Work, l*l,
			crcw.Counters().Steps,
			yes[xmath.AlmostEqual(res.Cost, want, 1e-9)], yes[res.Tree.IsLeftJustified()])
	}
	fmt.Println("claim: comparisons O(n² log n), CREW statement depth O(log² n),")
	fmt.Println("       CRCW depth O(log n·(log log n)²); exact optimal left-justified tree")
}

func e5() {
	rng := rand.New(rand.NewSource(5))
	// Markdown rows, pasted as EXPERIMENTS.md's E5 table.
	fmt.Println("| n | ε = n⁻² | Knuth optimum | paper approximation | gap ≤ ε | levels / H | comparisons | statements | Mehlhorn heuristic (ref [7]) |")
	fmt.Println("|---:|---:|---:|---:|:---|---:|---:|---:|---:|")
	for _, n := range []int{16, 32, 64, 128} {
		beta := make([]float64, n)
		alpha := make([]float64, n+1)
		tot := 0.0
		for i := range beta {
			beta[i] = rng.Float64()
			tot += beta[i]
		}
		for i := range alpha {
			alpha[i] = rng.Float64() * 0.3
			tot += alpha[i]
		}
		for i := range beta {
			beta[i] /= tot
		}
		for i := range alpha {
			alpha[i] /= tot
		}
		in, _ := obst.NewInstance(beta, alpha)
		eps := 1 / float64(n*n)
		opt, _ := obst.Knuth(in)
		m := pram.New(pram.WithGrain(grainDP))
		res := obst.Approx(m, in, eps)
		m.Close()
		mcost, _ := obst.Mehlhorn(in)
		within := "no"
		if res.Cost <= opt+eps+1e-12 {
			within = "yes"
		}
		fmt.Printf("| %d | %.2e | %.6f | %.6f | %s | %d / %d | %d | %d | %.6f |\n",
			n, eps, opt, res.Cost, within, res.Levels, res.HeightBound, res.Comparisons, m.Counters().Steps, mcost)
	}
	fmt.Println("claim: weighted path length within ε = n⁻² of the Knuth optimum; the DP stops")
	fmt.Println("       at its fixed point, well inside Lemma 6.1's cap H; the weight-balancing")
	fmt.Println("       heuristic (paper ref [7]) lands close but not within ε")
}

func e6() {
	rng := rand.New(rand.NewSource(6))
	fmt.Printf("%-10s %10s %12s %14s\n", "pattern", "n", "statements", "finger-rounds")
	for _, n := range []int{1 << 8, 1 << 12, 1 << 16} {
		p := workload.MonotonePattern(rng, n, 4)
		m := pram.New()
		if _, err := leafpattern.MonotonePar(m, p); err != nil {
			panic(err)
		}
		fmt.Printf("%-10s %10d %12d %14s\n", "monotone", n, m.Counters().Steps, "-")

		bp := workload.BitonicPattern(rng, n, 4)
		mb := pram.New()
		if _, err := leafpattern.BitonicPar(mb, bp); err != nil {
			panic(err)
		}
		fmt.Printf("%-10s %10d %12d %14s\n", "bitonic", n, mb.Counters().Steps, "-")

		q := workload.TreePattern(rng, n)
		mg := pram.New()
		_, rounds, err := leafpattern.Build(mg, q)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s %10d %12d %14d\n", "general", n, mg.Counters().Steps, rounds)
	}
	// The paper: "In general Finger-Reduction will simultaneously remove
	// all fingers" — m independent same-base fingers vanish in ONE round,
	// however many there are; the log m rounds above come from nesting.
	fmt.Printf("\n%-14s %8s %12s %14s\n", "fixed n=16384", "m", "statements", "finger-rounds")
	for _, m := range []int{2, 16, 128, 1024} {
		p := workload.FingerPattern(rng, 1<<14, m)
		mf := pram.New()
		_, rounds, err := leafpattern.Build(mf, p)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-14s %8d %12d %14d\n", "", m, mf.Counters().Steps, rounds)
	}
	fmt.Println("claim: monotone/bitonic in O(log n) statements; general patterns in")
	fmt.Println("       O(log m) rounds (nested fingers) — parallel fingers fall in one round")
}

func e7() {
	fmt.Printf("%-12s %8s %12s %12s %10s\n", "workload", "n", "huffman", "shannon-fano", "gap<1?")
	rng := rand.New(rand.NewSource(7))
	rows := []struct {
		name  string
		probs []float64
	}{
		{"english", workload.English()},
		{"zipf", workload.Zipf(256, 1.0)},
		{"uniform", workload.Uniform(100)},
		{"geometric", workload.Geometric(64, 0.8)},
		{"random", workload.Random(rng, 500)},
	}
	for _, r := range rows {
		res, err := shannonfano.Build(pram.New(pram.WithGrain(grainDP)), r.probs)
		if err != nil {
			panic(err)
		}
		h := huffman.Cost(r.probs)
		fmt.Printf("%-12s %8d %12.4f %12.4f %10v\n", r.name, len(r.probs), h,
			res.AverageLength, res.AverageLength < h+1)
	}
	fmt.Println("claim: HUFF ≤ SF < HUFF + 1 (Claim 7.1)")
}

func e8() {
	fmt.Printf("%6s %8s %7s %7s %12s %14s %10s\n", "n", "member?", "levels", "steps", "products", "word-ops", "agrees?")
	g := grammar.Palindrome()
	m := pram.New(pram.WithGrain(grainLinCFL))
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{31, 63, 127, 255} {
		w := make([]byte, n)
		member := rng.Intn(2) == 0
		for i := 0; i < n/2; i++ {
			w[i] = "ab"[rng.Intn(2)]
			w[n-1-i] = w[i]
		}
		w[n/2] = 'c'
		if !member {
			w[0] = 'c' // break the palindrome
		}
		m.Reset()
		res := lincfl.RecognizeDC(m, g, w)
		fmt.Printf("%6d %8v %7d %7d %12d %14d %10v\n", n, member, res.Depth, m.Counters().Steps,
			res.Products, res.WordOps, res.Accepted == lincfl.Sequential(g, w))
	}
	fmt.Println("claim: O(log n) levels and counted steps at unbounded p; verdicts agree with the sequential DP")
}

// e9 characterizes the chunk-cursor runtime itself on the repo's heaviest
// kernel (the Theorem 5.1 Huffman build): wall time and scheduler counters
// across a worker sweep, a per-phase cost breakdown, and one BENCH-JSON
// line so tooling can track speedup and overhead trends across commits.
// Each row's machine builds once to warm its resident pool and adaptive grain;
// the wall column is the median of the warm builds after it, and the
// counters are the last warm build's.
func e9() {
	const n, builds = 512, 5
	w := workload.SortedAscending(workload.Zipf(n, 1.1))

	type sweepRow struct {
		Workers     int     `json:"workers"`
		WallMS      float64 `json:"wall_ms"`
		Speedup     float64 `json:"speedup"`
		PramSpeedup float64 `json:"pram_speedup"`
		BarrierMS   float64 `json:"barrier_ms"`
		Grain       int     `json:"grain"`
	}
	var rows []sweepRow
	var base float64
	var serialSteps int64
	fmt.Printf("%8s %10s %9s %13s %12s %7s\n",
		"workers", "wall-ms", "speedup", "pram-speedup", "barrier-ms", "grain")
	for _, wk := range []int{1, 2, 4, 8} {
		m := pram.New(pram.WithWorkers(wk), pram.WithProcessors(wk))
		hufpar.BuildConcave(m, w)
		walls := make([]float64, builds)
		for b := range walls {
			m.Reset()
			start := time.Now()
			hufpar.BuildConcave(m, w)
			walls[b] = time.Since(start).Seconds() * 1e3
		}
		m.Close()
		sort.Float64s(walls)
		wall := walls[builds/2]
		if wk == 1 {
			base = wall
		}
		st := m.Stats()
		if wk == 1 {
			serialSteps = st.Steps
		}
		row := sweepRow{
			Workers:     wk,
			WallMS:      wall,
			Speedup:     base / wall,
			PramSpeedup: float64(serialSteps) / float64(st.Steps),
			BarrierMS:   st.BarrierWait.Seconds() * 1e3,
			Grain:       st.Grain,
		}
		rows = append(rows, row)
		fmt.Printf("%8d %10.2f %8.2fx %12.2fx %12.3f %7d\n",
			row.Workers, row.WallMS, row.Speedup, row.PramSpeedup,
			row.BarrierMS, row.Grain)
	}

	m := pram.New(pram.WithWorkers(4))
	hufpar.BuildConcave(m, w)
	st := m.Stats()
	fmt.Printf("\nper-phase breakdown (n=%d Huffman build, 4 workers):\n", n)
	fmt.Printf("%-18s %10s %12s %8s %10s %12s\n",
		"phase", "steps", "work", "calls", "busy-ms", "barrier-ms")
	for _, name := range st.PhaseNames() {
		ps := st.Phases[name]
		label := name
		if label == "" {
			label = "(unlabeled)"
		}
		fmt.Printf("%-18s %10d %12d %8d %10.3f %12.3f\n",
			label, ps.Steps, ps.Work, ps.Calls,
			ps.Busy.Seconds()*1e3, ps.BarrierWait.Seconds()*1e3)
	}

	blob, err := json.Marshal(map[string]any{
		"experiment": "E9",
		"kernel":     "hufpar.BuildConcave",
		"n":          n,
		"builds":     builds,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"sweep":      rows,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nBENCH-JSON %s\n", blob)
	fmt.Println("claim: counted (pram) speedup is exactly w; wall-clock speedup tracks it")
	fmt.Println("       up to the host's real core count")
}

// E10 — the partreed service layer: coalescing concurrent small requests
// into one PRAM batch per engine pass, and caching results by canonical
// request hash, versus dispatching every request alone with the cache
// off. The workload is many tiny Huffman jobs drawn from a small pool of
// distinct weight vectors — the regime the batcher and cache target.
func e10() {
	const (
		totalReqs = 10000
		clients   = 32
		distinct  = 128
		vecLen    = 24
	)
	rng := rand.New(rand.NewSource(1989))
	pool := make([][]byte, distinct)
	for i := range pool {
		w := make([]float64, vecLen)
		for j := range w {
			w[j] = 1 + rng.Float64()*99
		}
		body, err := json.Marshal(map[string]any{"weights": w})
		if err != nil {
			panic(err)
		}
		pool[i] = body
	}

	type runRow struct {
		Config     string  `json:"config"`
		WallMS     float64 `json:"wall_ms"`
		ReqPerSec  float64 `json:"req_per_sec"`
		P50US      float64 `json:"p50_us"`
		P95US      float64 `json:"p95_us"`
		HitRatio   float64 `json:"cache_hit_ratio"`
		AvgBatch   float64 `json:"avg_batch"`
		EngineRuns int64   `json:"engine_batches"`
	}

	runLoad := func(label string, cfg serve.Config) runRow {
		s := serve.New(cfg)
		ts := httptest.NewServer(s.Handler())
		defer func() { ts.Close(); s.Close() }()
		client := ts.Client()
		client.Transport = &http.Transport{MaxIdleConnsPerHost: clients}

		lat := make([]float64, totalReqs)
		var next int64
		var wg sync.WaitGroup
		var failures int64
		var mu sync.Mutex
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(7919 * (c + 1))))
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= totalReqs {
						return
					}
					body := pool[r.Intn(distinct)]
					t0 := time.Now()
					resp, err := client.Post(ts.URL+"/v1/huffman", "application/json", bytes.NewReader(body))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					lat[i] = time.Since(t0).Seconds() * 1e6
					if err != nil || resp.StatusCode != http.StatusOK {
						mu.Lock()
						failures++
						mu.Unlock()
					}
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(start)
		if failures > 0 {
			panic(fmt.Sprintf("E10 %s: %d failed requests", label, failures))
		}

		sort.Float64s(lat)
		snap := s.Snapshot()
		row := runRow{
			Config:    label,
			WallMS:    wall.Seconds() * 1e3,
			ReqPerSec: totalReqs / wall.Seconds(),
			P50US:     lat[totalReqs/2],
			P95US:     lat[totalReqs*95/100],
		}
		// A repeat request is absorbed either by the raw-body fast path or
		// by the canonical cache; count both as hits.
		if hm := snap.FastPath.Hits + snap.Cache.Hits + snap.Cache.Misses; hm > 0 {
			row.HitRatio = float64(snap.FastPath.Hits+snap.Cache.Hits) / float64(hm)
		}
		if bc, ok := snap.Batchers["huffman"]; ok {
			row.AvgBatch = bc.AvgBatch
			row.EngineRuns = bc.Batches
		}
		return row
	}

	base := serve.Config{
		Workers:        runtime.GOMAXPROCS(0),
		MaxInflight:    4 * clients,
		RequestTimeout: 30 * time.Second,
		Logf:           func(string, ...any) {},
	}
	cfgA := base
	cfgA.MaxBatch = 1
	cfgA.CacheSize = -1 // disabled
	cfgB := base
	cfgB.MaxBatch = 64
	cfgB.Linger = 200 * time.Microsecond
	cfgB.CacheSize = 4096

	fmt.Printf("%d Huffman requests (%d distinct %d-symbol vectors), %d concurrent clients:\n\n",
		totalReqs, distinct, vecLen, clients)
	fmt.Printf("%-22s %9s %10s %9s %9s %6s %9s %9s\n",
		"config", "wall-ms", "req/s", "p50-us", "p95-us", "hit%", "avg-batch", "batches")
	rows := []runRow{
		runLoad("batch=1 cache=off", cfgA),
		runLoad("batch=64 cache=on", cfgB),
	}
	for _, r := range rows {
		fmt.Printf("%-22s %9.1f %10.0f %9.0f %9.0f %5.1f%% %9.2f %9d\n",
			r.Config, r.WallMS, r.ReqPerSec, r.P50US, r.P95US,
			100*r.HitRatio, r.AvgBatch, r.EngineRuns)
	}

	blob, err := json.Marshal(map[string]any{
		"experiment": "E10",
		"kernel":     "serve: batched+cached huffman service",
		"requests":   totalReqs,
		"clients":    clients,
		"distinct":   distinct,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"runs":       rows,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nBENCH-JSON %s\n", blob)
	speedup := rows[0].WallMS / rows[1].WallMS
	fmt.Printf("claim: coalescing + caching serves the same load %.1fx faster than\n", speedup)
	fmt.Println("       batch-size-1 with the cache off; repeated vectors collapse to cache")
	fmt.Println("       hits and the rest amortize PRAM setup across one For per batch")
}

// benchSink keeps benchmark results observable so the loop bodies in e11
// cannot be optimized away.
var benchSink bool

// e11Row is one kernel measurement; the same shape is stored in
// BENCH_BASELINE.json and consumed by cmd/benchgate. This run measures
// only pooled rows: the unpooled rows in the baseline are the recorded
// pre-arena arm the gate budgets against.
type e11Row struct {
	Kernel   string  `json:"kernel"`
	Pooled   bool    `json:"pooled"`
	NsOp     float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
	BytesOp  int64   `json:"bytes_op"`
}

// E11 — allocations on the two hot paths the workspace arena first
// targeted: the lincfl separator recursion (whose matrices, once pooled,
// now live in one plain slab per call) and the partreed single-request
// steady state (pooled scratch plus the raw-body fast path). The
// pre-arena code was measured once and is recorded as the unpooled rows
// of the committed BENCH_BASELINE.json; cmd/benchgate budgets these
// pooled rows against that recorded arm.
func e11() {
	measure := func(kernel string, fn func(b *testing.B)) e11Row {
		wspool.Reset()
		res := testing.Benchmark(fn)
		return e11Row{
			Kernel:   kernel,
			Pooled:   true,
			NsOp:     float64(res.NsPerOp()),
			AllocsOp: res.AllocsPerOp(),
			BytesOp:  res.AllocedBytesPerOp(),
		}
	}

	// Kernel 1: linear-CFL recognition (Theorem 8.1) of a palindrome word,
	// the repo's most allocation-intensive recursion before pooling.
	const cflN = 127
	g := grammar.Palindrome()
	word := make([]byte, cflN)
	for i := 0; i < cflN/2; i++ {
		word[i] = "ab"[i%2]
		word[cflN-1-i] = word[i]
	}
	word[cflN/2] = 'c'
	m := pram.New(pram.WithGrain(grainLinCFL))
	lincflBench := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := lincfl.RecognizeDC(m, g, word)
			benchSink = res.Accepted
		}
	}

	// Kernel 2: one partreed request in the steady state — the same body
	// replayed against the in-process handler, so after the priming call
	// every iteration is the cache-hit hot path. The writer and request
	// are reused so the measurement is the server's work, not the
	// harness's.
	serveBench := func(b *testing.B) {
		s := serve.New(serve.Config{
			MaxBatch:       1,
			CacheSize:      1024,
			RequestTimeout: 10 * time.Second,
			Logf:           func(string, ...any) {},
		})
		defer s.Close()
		h := s.Handler()
		body := []byte(`{"weights":[3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3,2,3,8,4,6,2,6,4]}`)

		w := &nullResponseWriter{header: make(http.Header, 8)}
		req := httptest.NewRequest(http.MethodPost, "/v1/huffman", nil)
		rb := &replayBody{}
		serveOnce := func() {
			rb.Reset(body)
			req.Body = rb
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				panic(fmt.Sprintf("E11 serve kernel: status %d", w.status))
			}
		}
		serveOnce() // prime: first request renders and caches
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce()
		}
	}

	var rows []e11Row
	for _, k := range []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"lincfl-recognize", lincflBench},
		{"partreed-hot-path", serveBench},
	} {
		rows = append(rows, measure(k.name, k.fn))
	}

	fmt.Printf("%-20s %14s %14s %14s\n", "kernel", "ns/op", "B/op", "allocs/op")
	for _, r := range rows {
		fmt.Printf("%-20s %14.0f %14d %14d\n", r.Kernel, r.NsOp, r.BytesOp, r.AllocsOp)
	}

	blob, err := json.Marshal(map[string]any{
		"experiment": "E11",
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"runs":       rows,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nBENCH-JSON %s\n", blob)
	fmt.Println("claim: the workspace arena removes ≥70% of the recorded unpooled allocations")
	fmt.Println("       per operation on both kernels without slowing them down; make bench-gate")
	fmt.Println("       holds the line against BENCH_BASELINE.json")
}

// e12Row is one (kernel, P) measurement; cmd/benchgate reads the same
// shape back out of BENCH_BASELINE.json to enforce the speedup gate.
type e12Row struct {
	P         int     `json:"p"`
	NsOp      float64 `json:"ns_op"`
	Speedup   float64 `json:"speedup"`
	BarrierMS float64 `json:"barrier_ms"`
}

// e12Kernel is one kernel's sweep over worker counts.
type e12Kernel struct {
	Kernel string   `json:"kernel"`
	Rows   []e12Row `json:"rows"`
}

// e12Loop runs once() until minDur has elapsed (after one warm-up call)
// and returns the iteration count and measured wall time.
func e12Loop(minDur time.Duration, once func()) (int, time.Duration) {
	once() // warm caches, pools and the adaptive grain
	start := time.Now()
	iters := 0
	for time.Since(start) < minDur {
		once()
		iters++
	}
	return iters, time.Since(start)
}

// E12 — multicore scaling of the parallel kernels: wall-clock speedup of
// each kernel at P ∈ {1,2,4,8} workers relative to its own P=1 run, with
// the scheduler's barrier wait alongside. The workspace arena is sharded to match each P, mirroring
// how partreed -workers deploys. The BENCH-JSON records the host's core
// count: speedup on a host with fewer cores than P is capped near 1.0 by
// physics, and cmd/benchgate only enforces its minimum-speedup gate when
// the measuring host actually has the cores.
func e12() {
	minDur := 300 * time.Millisecond
	cflN, mongeN, boolN := 255, 512, 1024
	const batchJobs, batchLen = 64, 64
	if shortMode {
		minDur = 60 * time.Millisecond
		cflN, mongeN, boolN = 127, 256, 512
	}
	rng := rand.New(rand.NewSource(12))

	g := grammar.Palindrome()
	word := make([]byte, cflN)
	for i := 0; i < cflN/2; i++ {
		word[i] = "ab"[i%2]
		word[cflN-1-i] = word[i]
	}
	word[cflN/2] = 'c'

	ma := monge.Random(rng, mongeN, mongeN, 100, 5)
	mb := monge.Random(rng, mongeN, mongeN, 100, 5)

	ba := boolmat.New(boolN, boolN)
	bb := boolmat.New(boolN, boolN)
	for i := 0; i < boolN; i++ {
		for j := 0; j < boolN; j += 1 + rng.Intn(16) {
			ba.Set(i, j, true)
			bb.Set(j, i, true)
		}
	}

	jobs := make([][]float64, batchJobs)
	for i := range jobs {
		w := make([]float64, batchLen)
		for j := range w {
			w[j] = 1 + rng.Float64()*99
		}
		jobs[i] = w
	}

	// Each kernel: run one operation with P workers, fold the barrier
	// wait for that operation into the returned total.
	kernels := []struct {
		name string
		// newOp returns the per-iteration operation and a barrier func to
		// call after the timing loop (total across all iterations).
		newOp func(p int) (op func(), barrier func() time.Duration)
	}{
		{"lincfl-recognize", func(p int) (func(), func() time.Duration) {
			m := pram.New(pram.WithWorkers(p))
			return func() {
					res := lincfl.RecognizeDC(m, g, word)
					benchSink = res.Accepted
				}, func() time.Duration {
					return m.Stats().BarrierWait
				}
		}},
		{"monge-cutsmawk", func(p int) (func(), func() time.Duration) {
			m := pram.New(pram.WithWorkers(p))
			var cnt matrix.OpCount
			return func() {
					monge.CutSMAWKPar(m, ma, mb, &cnt).Release()
				}, func() time.Duration {
					return m.Stats().BarrierWait
				}
		}},
		{"boolmat-mulpar", func(p int) (func(), func() time.Duration) {
			m := pram.New(pram.WithWorkers(p))
			return func() {
					boolmat.MulPar(m, ba, bb).Release()
				}, func() time.Duration {
					return m.Stats().BarrierWait
				}
		}},
		{"partreed-batch", func(p int) (func(), func() time.Duration) {
			// The partreed hot path below the HTTP layer: one engine
			// batch per call, machine owned by the batch entry point.
			var barrier time.Duration
			opts := partree.Options{Workers: p}
			return func() {
					res, st := partree.HuffmanBatch(jobs, opts)
					benchSink = res[0].Err == nil
					barrier += st.BarrierWait
				}, func() time.Duration {
					return barrier
				}
		}},
	}

	cpus := runtime.NumCPU()
	var out []e12Kernel
	for _, k := range kernels {
		fmt.Printf("%-18s %3s %14s %9s %14s\n",
			k.name, "p", "ns/op", "speedup", "barrier-ms/op")
		var rows []e12Row
		var base float64
		for _, p := range []int{1, 2, 4, 8} {
			prevShards := wspool.SetShards(p)
			op, barrierOf := k.newOp(p)
			iters, elapsed := e12Loop(minDur, op)
			barrier := barrierOf()
			wspool.SetShards(prevShards)
			nsOp := float64(elapsed.Nanoseconds()) / float64(iters)
			if p == 1 {
				base = nsOp
			}
			ops := iters + 1 // the counters also saw the warm-up call
			row := e12Row{
				P:         p,
				NsOp:      nsOp,
				Speedup:   base / nsOp,
				BarrierMS: barrier.Seconds() * 1e3 / float64(ops),
			}
			rows = append(rows, row)
			fmt.Printf("%-18s %3d %14.0f %8.2fx %14.4f\n",
				"", row.P, row.NsOp, row.Speedup, row.BarrierMS)
		}
		out = append(out, e12Kernel{Kernel: k.name, Rows: rows})
		fmt.Println()
	}

	blob, err := json.Marshal(map[string]any{
		"experiment": "E12",
		"cpus":       cpus,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"short":      shortMode,
		"kernels":    out,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("BENCH-JSON %s\n", blob)
	fmt.Printf("claim: on a host with ≥4 cores the monge and boolmat kernels reach ≥2x\n")
	fmt.Printf("       speedup at P=4 (enforced by make bench-gate); this host has %d\n", cpus)
	fmt.Println("       core(s), so ratios are capped near 1.0 when cpus < P and the gate skips")
}

// e13Row is one (kernel, armed?) measurement. cmd/benchgate holds the
// disarmed rows within -trace-band of the committed baseline: the tracing
// hooks must stay invisible when no recorder is attached. The armed rows
// document what switching the instrumentation on costs; they inform but
// never gate, since an armed run is an explicit opt-in. NoiseFrac is the
// (max-min)/min ns/op spread this run observed across its own reps — the
// gate widens its band by the noise both sides measured, so a quiet host
// gates tight and a loud one does not flake.
type e13Row struct {
	Kernel    string  `json:"kernel"`
	Armed     bool    `json:"armed"`
	NsOp      float64 `json:"ns_op"`
	AllocsOp  int64   `json:"allocs_op"`
	BytesOp   int64   `json:"bytes_op"`
	NoiseFrac float64 `json:"noise_frac"`
}

// E13 — the tracing layer's cost on the two hot paths E11 already gates:
// the lincfl separator recursion (a Machine with and without a tracer)
// and the partreed cache-hit steady state (the same request replayed
// with and without the X-Partree-Trace header). Disarmed is the shipping
// default — every statement pays one nil pointer compare and nothing
// else — so the regression band on those rows is tight (2%); to keep
// wall-clock noise out of a band that tight, each configuration takes
// the minimum over several testing.Benchmark runs. The armed serve row
// deliberately includes the envelope rendering and the fast-path bypass
// a traced request opts into, so its ratio overstates the cost of
// tracing alone; the armed lincfl row is the honest per-span price.
func e13() {
	// The calibration spin and the disarmed rows, which benchgate compares
	// with the baseline, always take the best of 3 reps and report the
	// rep-to-rep noise the gate's band widens by: one -short rep of a ~2 µs
	// cache hit carries no measured noise and flaked the gate. -short cuts
	// only the armed rows, which no gate compares across runs, to one rep.
	reps, armedReps := 3, 3
	if shortMode {
		armedReps = 1
	}
	measure := func(kernel string, armed bool, fn func(b *testing.B)) e13Row {
		best := e13Row{Kernel: kernel, Armed: armed}
		var worst float64
		n := reps
		if armed {
			n = armedReps
		}
		for r := 0; r < n; r++ {
			wspool.Reset()
			res := testing.Benchmark(fn)
			ns := float64(res.NsPerOp())
			if r == 0 || ns < best.NsOp {
				best.NsOp = ns
				best.AllocsOp = res.AllocsPerOp()
				best.BytesOp = res.AllocedBytesPerOp()
			}
			if ns > worst {
				worst = ns
			}
		}
		if best.NsOp > 0 {
			best.NoiseFrac = (worst - best.NsOp) / best.NsOp
		}
		return best
	}

	// Calibration: a fixed pure-CPU spin with no tracing hooks, measured
	// the same way in the same process. The gate compares each disarmed
	// row's ns/op normalized by this, so host-speed drift between the
	// baseline run and the gating run — other tenants on a shared box,
	// frequency scaling — divides out instead of flaking a 2% band.
	calRow := measure("calibration-spin", false, func(b *testing.B) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			x := uint64(i) | 1
			for j := 0; j < 1<<18; j++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			acc += x
		}
		benchSink = acc != 0
	})

	// Kernel 1: linear-CFL recognition, the same palindrome word E11 pins.
	// Armed attaches a default-capacity ring; the ring wraps during the
	// run, so eviction cost is part of the armed price.
	const cflN = 127
	g := grammar.Palindrome()
	word := make([]byte, cflN)
	for i := 0; i < cflN/2; i++ {
		word[i] = "ab"[i%2]
		word[cflN-1-i] = word[i]
	}
	word[cflN/2] = 'c'
	newLincfl := func(armed bool) func(b *testing.B) {
		return func(b *testing.B) {
			m := pram.New(pram.WithGrain(grainLinCFL))
			if armed {
				m.SetTracer(trace.New(0))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := lincfl.RecognizeDC(m, g, word)
				benchSink = res.Accepted
			}
		}
	}

	// Kernel 2: the partreed cache-hit replay from E11. Armed sets the
	// trace header, which skips the raw-body fast path and renders a
	// fresh per-request envelope — the full opt-in cost, on purpose.
	newServe := func(armed bool) func(b *testing.B) {
		return func(b *testing.B) {
			s := serve.New(serve.Config{
				MaxBatch:       1,
				CacheSize:      1024,
				RequestTimeout: 10 * time.Second,
				Logf:           func(string, ...any) {},
			})
			defer s.Close()
			h := s.Handler()
			body := []byte(`{"weights":[3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3,2,3,8,4,6,2,6,4]}`)

			w := &nullResponseWriter{header: make(http.Header, 8)}
			req := httptest.NewRequest(http.MethodPost, "/v1/huffman", nil)
			if armed {
				req.Header.Set("X-Partree-Trace", "1")
			}
			rb := &replayBody{}
			serveOnce := func() {
				rb.Reset(body)
				req.Body = rb
				w.status = 0
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					panic(fmt.Sprintf("E13 serve kernel: status %d", w.status))
				}
			}
			serveOnce() // prime: first request renders and caches
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveOnce()
			}
		}
	}

	var rows []e13Row
	for _, k := range []struct {
		name string
		mk   func(armed bool) func(b *testing.B)
	}{
		{"lincfl-recognize", newLincfl},
		{"partreed-hot-path", newServe},
	} {
		for _, armed := range []bool{false, true} {
			rows = append(rows, measure(k.name, armed, k.mk(armed)))
		}
	}

	fmt.Printf("%-20s %8s %14s %14s %14s %8s\n", "kernel", "armed", "ns/op", "B/op", "allocs/op", "noise")
	fmt.Printf("%-20s %8s %14.0f %14d %14d %7.1f%%\n",
		calRow.Kernel, "-", calRow.NsOp, calRow.BytesOp, calRow.AllocsOp, 100*calRow.NoiseFrac)
	for _, r := range rows {
		fmt.Printf("%-20s %8v %14.0f %14d %14d %7.1f%%\n",
			r.Kernel, r.Armed, r.NsOp, r.BytesOp, r.AllocsOp, 100*r.NoiseFrac)
	}
	fmt.Println()
	for i := 0; i+1 < len(rows); i += 2 {
		off, on := rows[i], rows[i+1]
		fmt.Printf("%-20s armed/disarmed ns/op %.2fx, +%d allocs/op\n",
			off.Kernel, on.NsOp/off.NsOp, on.AllocsOp-off.AllocsOp)
	}

	blob, err := json.Marshal(map[string]any{
		"experiment":     "E13",
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"reps":           reps,
		"armed_reps":     armedReps,
		"cal_ns_op":      calRow.NsOp,
		"cal_noise_frac": calRow.NoiseFrac,
		"runs":           rows,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nBENCH-JSON %s\n", blob)
	fmt.Println("claim: with no recorder attached the tracing hooks cost nothing — the")
	fmt.Println("       disarmed rows stay within the bench-gate band of the baseline;")
	fmt.Println("       armed runs pay only for the spans they asked for")
}

// e16Row is one backend-count throughput measurement; cmd/benchgate reads
// the same shape back out of the report to enforce the scaling gate.
type e16Row struct {
	Backends  int     `json:"backends"`
	WallMS    float64 `json:"wall_ms"`
	ReqPerSec float64 `json:"req_per_sec"`
}

// e16Report is the E16 BENCH-JSON payload. Throughput rows measure the
// same compute-bound load against 1, 2 and 4 single-worker backends; the
// latency fields compare p50/p99 of an identical tail-injected load with
// hedging off and on. Failures counts non-200 client responses across
// every run — the cluster's zero-failure contract, gated at 0.
type e16Report struct {
	CPUs       int      `json:"cpus"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Short      bool     `json:"short"`
	Requests   int      `json:"requests"`
	Clients    int      `json:"clients"`
	Throughput []e16Row `json:"throughput"`
	Failures   int64    `json:"failures"`

	TailEvery     int     `json:"tail_every"`
	TailMS        float64 `json:"tail_ms"`
	LatencyReqs   int     `json:"latency_reqs"`
	UnhedgedP50MS float64 `json:"unhedged_p50_ms"`
	UnhedgedP99MS float64 `json:"unhedged_p99_ms"`
	HedgedP50MS   float64 `json:"hedged_p50_ms"`
	HedgedP99MS   float64 `json:"hedged_p99_ms"`
	HedgesFired   int64   `json:"hedges_fired"`
}

// E16 — the cluster tier. Two questions, one per half of the report.
// Scaling: the gateway fronts N single-worker backends with consistent-
// hash routing; on a host with the cores to run them, 4 backends must
// serve a compute-bound load ≥1.8x faster than 1 (the gate arms only
// when cpus ≥ 4, like E12's). Tail latency: with a deterministic stall
// injected into every -Nth backend request, hedging to the next ring
// replica must cut the client-observed p99 — the duplicate races the
// stall and wins — without a single failed request in either arm.
// -short shrinks only the throughput arm: each tail arm keeps its 1 200
// requests, because at 300 the p99 would be the 3rd-worst request and
// the hedged-gain row would flake on a single slow response.
func e16() {
	thruReqs, latReqs, clients := 900, 1200, 16
	obstN := 40
	tailEvery, tailSleep := 25, 25*time.Millisecond
	if shortMode {
		thruReqs, obstN = 240, 24
	}
	rng := rand.New(rand.NewSource(16))

	// Throughput bodies: distinct OBST instances (quadratic DP per job, so
	// engine compute — serialized per backend through its batcher machine —
	// dominates HTTP plumbing and backend count is the capacity knob).
	thruBodies := make([][]byte, thruReqs)
	for i := range thruBodies {
		keys := make([]float64, obstN)
		gaps := make([]float64, obstN+1)
		for j := range keys {
			keys[j] = rng.Float64() + 0.01
		}
		for j := range gaps {
			gaps[j] = rng.Float64() * 0.3
		}
		body, err := json.Marshal(map[string]any{"keys": keys, "gaps": gaps})
		if err != nil {
			panic(err)
		}
		thruBodies[i] = body
	}
	// Latency bodies: tiny Huffman jobs, so the baseline sits far below
	// both the injected stall and the hedge delay clamp.
	latBodies := make([][]byte, latReqs)
	for i := range latBodies {
		w := make([]float64, 24)
		for j := range w {
			w[j] = 1 + rng.Float64()*99
		}
		body, err := json.Marshal(map[string]any{"weights": w})
		if err != nil {
			panic(err)
		}
		latBodies[i] = body
	}

	var totalFailures int64

	// startCluster brings up nb single-worker backends plus a gateway;
	// tailed injects the deterministic stall into every tailEvery-th /v1
	// request, counted cluster-wide so both latency arms see the same
	// stall rate regardless of routing.
	startCluster := func(nb int, cfg cluster.Config, tailed bool) (*cluster.Gateway, *httptest.Server, func()) {
		var closers []func()
		var nth int64
		var nthMu sync.Mutex
		urls := make([]string, nb)
		for i := 0; i < nb; i++ {
			s := serve.New(serve.Config{
				Workers:     1,
				MaxBatch:    32,
				Linger:      200 * time.Microsecond,
				MaxInflight: 8 * clients,
				Logf:        func(string, ...any) {},
			})
			inner := s.Handler()
			var h http.Handler = inner
			if tailed {
				h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if strings.HasPrefix(r.URL.Path, "/v1/") {
						nthMu.Lock()
						nth++
						stall := nth%int64(tailEvery) == 0
						nthMu.Unlock()
						if stall {
							time.Sleep(tailSleep)
						}
					}
					inner.ServeHTTP(w, r)
				})
			}
			ts := httptest.NewServer(h)
			urls[i] = ts.URL
			closers = append(closers, ts.Close, s.Close)
		}
		cfg.Backends = urls
		cfg.ProbeInterval = 50 * time.Millisecond
		cfg.Logf = func(string, ...any) {}
		g := cluster.New(cfg)
		gts := httptest.NewServer(g.Handler())
		closers = append(closers, gts.Close, g.Close)
		return g, gts, func() {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
		}
	}

	// runLoad drives the bodies through the gateway with `clients`
	// concurrent clients, returning per-request latencies in ms.
	runLoad := func(gts *httptest.Server, path string, bodies [][]byte) ([]float64, time.Duration) {
		client := gts.Client()
		client.Transport = &http.Transport{MaxIdleConnsPerHost: clients}
		lat := make([]float64, len(bodies))
		var next int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= int64(len(bodies)) {
						return
					}
					t0 := time.Now()
					resp, err := client.Post(gts.URL+path, "application/json", bytes.NewReader(bodies[i]))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					lat[i] = time.Since(t0).Seconds() * 1e3
					if err != nil || resp.StatusCode != http.StatusOK {
						mu.Lock()
						totalFailures++
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		return lat, time.Since(start)
	}
	percentile := func(lat []float64, p float64) float64 {
		s := append([]float64(nil), lat...)
		sort.Float64s(s)
		i := int(p * float64(len(s)-1))
		return s[i]
	}

	rep := e16Report{
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Short:       shortMode,
		Requests:    thruReqs,
		Clients:     clients,
		TailEvery:   tailEvery,
		TailMS:      tailSleep.Seconds() * 1e3,
		LatencyReqs: latReqs,
	}

	fmt.Printf("throughput: %d distinct OBST(n=%d) requests, %d clients, single-worker backends:\n\n",
		thruReqs, obstN, clients)
	fmt.Printf("%10s %10s %10s %9s\n", "backends", "wall-ms", "req/s", "scaling")
	var base float64
	for _, nb := range []int{1, 2, 4} {
		_, gts, shutdown := startCluster(nb, cluster.Config{DisableHedging: true}, false)
		_, wall := runLoad(gts, "/v1/obst", thruBodies)
		shutdown()
		rps := float64(thruReqs) / wall.Seconds()
		if nb == 1 {
			base = rps
		}
		rep.Throughput = append(rep.Throughput, e16Row{
			Backends: nb, WallMS: wall.Seconds() * 1e3, ReqPerSec: rps,
		})
		fmt.Printf("%10d %10.1f %10.0f %8.2fx\n", nb, wall.Seconds()*1e3, rps, rps/base)
	}

	fmt.Printf("\ntail latency: %d Huffman requests, every %dth backend request stalled %v:\n\n",
		latReqs, tailEvery, tailSleep)
	fmt.Printf("%-10s %10s %10s %12s\n", "config", "p50-ms", "p99-ms", "hedges")
	for _, hedged := range []bool{false, true} {
		cfg := cluster.Config{
			DisableHedging: !hedged,
			HedgeMin:       time.Millisecond,
			HedgeMax:       5 * time.Millisecond,
		}
		g, gts, shutdown := startCluster(2, cfg, true)
		lat, _ := runLoad(gts, "/v1/huffman", latBodies)
		fired := g.View().HedgesFired
		shutdown()
		p50, p99 := percentile(lat, 0.50), percentile(lat, 0.99)
		if hedged {
			rep.HedgedP50MS, rep.HedgedP99MS, rep.HedgesFired = p50, p99, fired
			fmt.Printf("%-10s %10.3f %10.3f %12d\n", "hedged", p50, p99, fired)
		} else {
			rep.UnhedgedP50MS, rep.UnhedgedP99MS = p50, p99
			fmt.Printf("%-10s %10.3f %10.3f %12s\n", "unhedged", p50, p99, "-")
		}
	}
	rep.Failures = totalFailures
	if totalFailures > 0 {
		panic(fmt.Sprintf("E16: %d failed client requests — the cluster's zero-failure contract is broken", totalFailures))
	}

	blob, err := json.Marshal(map[string]any{
		"experiment": "E16",
		"report":     rep,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nBENCH-JSON %s\n", blob)
	fmt.Printf("claim: on a >=4-core host 4 backends serve the compute-bound load >=1.8x\n")
	fmt.Printf("       faster than 1 (this host has %d core(s); the gate skips below 4),\n", rep.CPUs)
	fmt.Println("       hedging cuts the stalled-tail p99, and no client request ever fails")
}

// nullResponseWriter is an http.ResponseWriter that discards the body; a
// persistent header map keeps harness allocations out of the measurement.
type nullResponseWriter struct {
	header http.Header
	status int
}

func (w *nullResponseWriter) Header() http.Header         { return w.header }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(status int)      { w.status = status }

// replayBody re-serves the same request bytes each benchmark iteration.
type replayBody struct{ bytes.Reader }

func (r *replayBody) Close() error   { return nil }
func (r *replayBody) Reset(p []byte) { r.Reader.Reset(p) }

// e14Report is the E14 BENCH-JSON payload; cmd/benchgate reads the same
// shape back out of BENCH_BASELINE.json, whose E14 section also records
// dispatch_spawn_ns: the spawn-per-statement dispatcher the resident pool
// replaced, measured once and budgeted against by the gate.
type e14Report struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	Reps       int `json:"reps"`
	Workers    int `json:"workers"`
	N          int `json:"n"`
	Grain      int `json:"grain"`

	// DispatchResidentNs: ns per small-n For statement on the resident
	// pool (best of reps; NoiseFrac is the observed spread).
	DispatchResidentNs float64 `json:"dispatch_resident_ns"`
	NoiseFrac          float64 `json:"noise_frac"`

	// SpawnedPer10k counts worker goroutines spawned across 10k For
	// statements on a warm resident machine (steady state: must be 0).
	SpawnedPer10k int64 `json:"spawned_per_10k"`

	// ConstructedPer10k and ReusedPer10k count facade machine-pool
	// traffic across 10k small Batch calls after warm-up (steady state:
	// 0 constructions, every call a reuse). BatchNsOp is the throughput
	// of those calls — the small-batch service dispatch metric.
	ConstructedPer10k int64   `json:"constructed_per_10k"`
	ReusedPer10k      int64   `json:"reused_per_10k"`
	BatchNsOp         float64 `json:"batch_ns_op"`
}

// E14 — statement-dispatch overhead. The tables the paper's bounds care
// about count steps; this experiment pins the constant factor in front
// of them: what one small parallel statement costs to launch. The
// resident pool must stay within the gated budget of the recorded
// per-statement spawning cost, spawn nothing at steady state, and the
// facade machine pool must construct nothing under steady small-batch
// traffic.
func e14() {
	// Start the facade machine pool empty so experiments sharing a
	// process don't contaminate each other's reuse counts.
	partree.DrainMachinePool()
	const (
		dispatchWorkers = 2  // forced, so the measurement shape is host-independent
		dispatchN       = 64 // small-n: the service-traffic regime where dispatch dominates
		dispatchGrain   = 1  // one index per chunk — the serve batchers' posture
	)
	reps := 3
	if shortMode {
		reps = 1 // benchgate loosens the budget for short runs instead
	}

	// Dispatch cost: one small statement, best of reps. The buffer write
	// keeps bodies non-empty without cross-worker contention.
	buf := make([]int64, dispatchN)
	dispatch := func(b *testing.B) {
		m := pram.New(pram.WithWorkers(dispatchWorkers), pram.WithGrain(dispatchGrain),
			pram.WithIdleTimeout(time.Minute)) // no mid-measurement retires
		defer m.Close()
		body := func(i int) { buf[i]++ }
		m.For(dispatchN, body) // warm: builds the resident pool
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.For(dispatchN, body)
		}
	}
	var residentNs, worst float64
	for r := 0; r < reps; r++ {
		ns := float64(testing.Benchmark(dispatch).NsPerOp())
		if r == 0 || ns < residentNs {
			residentNs = ns
		}
		worst = max(worst, ns)
	}
	noise := 0.0
	if residentNs > 0 {
		noise = (worst - residentNs) / residentNs
	}

	// Goroutines spawned per 10k statements on a warm resident machine.
	m := pram.New(pram.WithWorkers(dispatchWorkers), pram.WithGrain(dispatchGrain),
		pram.WithIdleTimeout(time.Minute))
	body := func(i int) { buf[i]++ }
	m.For(dispatchN, body) // warm
	spawnBase := pram.SpawnedWorkers()
	for i := 0; i < 10_000; i++ {
		m.For(dispatchN, body)
	}
	spawned := pram.SpawnedWorkers() - spawnBase
	m.Close()

	// Small-batch facade throughput + machine-pool traffic: the service
	// regime, one small batch per call through the Options-keyed pool.
	jobs := [][]float64{{3, 1, 4, 1, 5}, {9, 2, 6, 5, 3}, {5, 8, 9, 7, 9}}
	batchOpts := partree.Options{Workers: dispatchWorkers, Grain: engine.GrainBatch()}
	for i := 0; i < 10; i++ { // warm the pool
		partree.HuffmanBatch(jobs, batchOpts)
	}
	mpBase := partree.MachinePoolStats()
	start := time.Now()
	for i := 0; i < 10_000; i++ {
		partree.HuffmanBatch(jobs, batchOpts)
	}
	batchNs := float64(time.Since(start).Nanoseconds()) / 10_000
	mp := partree.MachinePoolStats()

	rep := e14Report{
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		Reps:               reps,
		Workers:            dispatchWorkers,
		N:                  dispatchN,
		Grain:              dispatchGrain,
		DispatchResidentNs: residentNs,
		NoiseFrac:          noise,
		SpawnedPer10k:      spawned,
		ConstructedPer10k:  mp.Constructed - mpBase.Constructed,
		ReusedPer10k:       mp.Reused - mpBase.Reused,
		BatchNsOp:          batchNs,
	}

	fmt.Printf("%-34s %14s\n", "metric", "value")
	fmt.Printf("%-34s %14.0f\n", "dispatch ns/For (resident)", rep.DispatchResidentNs)
	fmt.Printf("%-34s %13.1f%%\n", "noise", 100*rep.NoiseFrac)
	fmt.Printf("%-34s %14d\n", "goroutines spawned / 10k For", rep.SpawnedPer10k)
	fmt.Printf("%-34s %14d\n", "machines constructed / 10k batches", rep.ConstructedPer10k)
	fmt.Printf("%-34s %14d\n", "machines reused / 10k batches", rep.ReusedPer10k)
	fmt.Printf("%-34s %14.0f\n", "small-batch ns/op", rep.BatchNsOp)

	blob, err := json.Marshal(map[string]any{
		"experiment": "E14",
		"report":     rep,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nBENCH-JSON %s\n", blob)
	fmt.Println("claim: resident workers cut small-statement dispatch by ≥40% from the")
	fmt.Println("       recorded per-statement spawning cost, and steady-state traffic spawns")
	fmt.Println("       zero goroutines and constructs zero machines; make bench-gate holds it")
}

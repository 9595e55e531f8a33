// Command perfbench is the partree repository benchmark.
//
// One invocation runs one workload in one process: the servers, the
// gateway and the callers all live here and talk over loopback, with at
// most nproc callers and connections. Every answer is checked against a
// serial oracle whose result is computed before timing starts.
//
// An untraced run (-trace 0) prints the end-to-end metrics, whose CPU
// times are scaled to the speed of a host reference timed in the same
// run (hostref.go). A traced run (-trace 1) wraps each layer's public
// functions and handlers from outside, records spans in memory,
// alternates one-second untraced and traced windows, and prints the
// per-layer metrics together with the residual and the tracing overhead. Either way the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Metric names and units come from the -bench file (BENCHMARK.json).
//
// Usage:
//
//	perfbench -workload gw-hot|svc-miss|lib-par -seed N -seconds S -trace 0|1 -bench FILE [-spans FILE]
//
// run.py builds it and keeps every build product under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"partree"
	"partree/internal/pool"
)

// system is one workload's system under test.
type system interface {
	// setup builds the system and runs its fixed warm-up pass, whose
	// answers are checked like timed ones.
	setup() error
	// teardown stops everything setup started and waits for it.
	teardown()
	// op runs timed operation i and checks its answer. It returns the
	// operation's latency, which excludes the answer check.
	op(i int, traced bool) (time.Duration, error)
	// counters adds the workload's cumulative layer counters to m.
	counters(m map[string]float64)
	// layers sets the workload's per-layer metrics of a traced run from
	// the counter deltas, the op records and its own spans.
	layers(out metrics, d deltas, recs []opRecord)
	// writeSpans writes the traced run's spans as JSON lines.
	writeSpans(w *json.Encoder) error
}

// workload describes how one workload is driven.
type workload struct {
	sys     system
	ops     int // timed operations the generated inputs cover
	callers int // closed-loop callers
	memAt   int // timed ops after which an untraced run first measures the live heap
	ref     refKind
	opName  string // what one op is, for the report
}

type params struct {
	seed    int64
	seconds float64
	nproc   int
	traced  bool
}

func newWorkload(name string, p params) (*workload, error) {
	switch name {
	case "gw-hot":
		return newGwHot(p), nil
	case "svc-miss":
		return newSvcMiss(p), nil
	case "lib-par":
		return newLibPar(p), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want gw-hot, svc-miss or lib-par)", name)
}

type counts struct{ attempted, failed atomic.Int64 }

// tally counts checked answers: the timed ops, which are the run's
// attempted and failed ops, and all other checks (warm-up passes, decode
// and batch probes, probe suites). A wrong answer in either makes the run
// incorrect.
var tally struct {
	timed, other counts
	logged       atomic.Int32
}

// check records one checked answer outside the timed ops.
func check(err error) bool { return record(&tally.other, err) }

// record counts one checked answer in c and reports the first few
// failures.
func record(c *counts, err error) bool {
	c.attempted.Add(1)
	if err == nil {
		return true
	}
	c.failed.Add(1)
	if tally.logged.Add(1) <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", err)
	}
	return false
}

// metrics holds measured values by name. Names and units are defined
// once, in BENCHMARK.json; report pairs the two.
type metrics map[string]float64

func (m metrics) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = v
}

type specMetric struct{ Name, Unit string }

// spec is what the program reads from BENCHMARK.json: the name and unit
// of every metric.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs the measured values with the names and units of list. A
// traced run (fill) reports a listed metric it did not set as 0: a layer
// its workload does not cross (the cluster layer on gw-hot; http and
// serve on gw-hot and svc-miss; the kernels on lib-par). An untraced run
// must set every listed metric. A value under a name the list lacks is an
// error either way, so the program cannot drift from the list.
func report(list []specMetric, m metrics, fill bool) (map[string]metric, error) {
	out := map[string]metric{}
	for _, s := range list {
		v, ok := m[s.Name]
		if !ok && !fill {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	for k := range m {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("metric %s is not listed in the benchmark file", k)
		}
	}
	return out, nil
}

// opRecord is one timed operation.
type opRecord struct {
	lat    time.Duration // latency, answer check excluded
	wall   time.Duration // the caller's whole iteration, check included
	end    time.Duration // completion, from the start of the timed phase
	ok     bool
	traced bool
}

// deltas holds counter deltas over the timed phase: all of it, and the
// untraced windows alone (where span recording cannot perturb them).
type deltas struct {
	all, untraced map[string]float64
}

func main() {
	name := flag.String("workload", "", "gw-hot, svc-miss or lib-par")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bench := flag.String("bench", "", "BENCHMARK.json, which names every metric and its unit")
	spans := flag.String("spans", "", "file a traced run writes its spans to (JSON lines)")
	setupOnly := flag.Bool("setup-only", false, "time one cold set-up and print it as JSON (the set-up processes of a run)")
	flag.Parse()
	p := params{seed: *seed, seconds: *seconds, nproc: runtime.NumCPU(), traced: *traced == 1}
	if *setupOnly {
		if err := coldSetup(*name, p); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || *bench == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds > 0, -trace 0 or 1 and -bench")
		os.Exit(2)
	}
	res, err := run(*name, p, *bench, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// coldSetups is how many set-up processes an untraced run starts, one
// after another; setup_s is the median of their scaled set-up CPU times.
// Each times the first set-up in its process, as a served system's
// start-up is: nothing is paged in, and the heap, the shared arena and the
// machine pool are empty. One such sample moves by several percent between
// processes, so a run takes the median of several.
const coldSetups = 7

// setupResult is what a set-up process prints.
type setupResult struct {
	Scaled  float64 `json:"scaled_cpu_s"` // CPU at the host reference's nominal speed
	CPU     float64 `json:"cpu_s"`        // process CPU time of the set-up
	Wall    float64 `json:"wall_s"`       // its wall-clock time
	Checked int64   `json:"checked"`
	Failed  int64   `json:"failed"`
}

// coldSetup is the body of a set-up process: it generates the warm-up's
// inputs only, times the process's first set-up (first constructor to
// the end of the warm-up pass) and tears it down. Then it probes the host
// reference, and prints the set-up's CPU time, scaled and raw, and its
// wall-clock time with the warm-up's checked answers.
func coldSetup(name string, p params) error {
	p.seconds, p.traced = 0, false
	w, err := newWorkload(name, p)
	if err != nil {
		return err
	}
	start, cpu0 := time.Now(), cpuTime()
	if err := w.sys.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	cpu, wall := cpuTime()-cpu0, time.Since(start)
	w.sys.teardown()
	runtime.GC() // so the probes do not share the CPU with collecting the set-up's garbage
	ref, err := w.newReference(p)
	if err != nil {
		return err
	}
	defer ref.close()
	var probes []time.Duration
	for k := 0; k <= refProbes; k++ {
		d, err := ref.probe()
		if err != nil {
			return err
		}
		if k > 0 { // the first probe warms the reference up
			probes = append(probes, d)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(setupResult{
		Scaled: scaled(cpu, ref, probes), CPU: cpu.Seconds(), Wall: wall.Seconds(),
		Checked: tally.other.attempted.Load(), Failed: tally.other.failed.Load()})
}

// measureSetups runs the set-up processes and returns what each printed.
// Their warm-up answers count among this run's checked answers.
func measureSetups(name string, p params) ([]setupResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []setupResult
	for k := 0; k < coldSetups; k++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, exe, "-setup-only", "-workload", name, "-seed", strconv.FormatInt(p.seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up process %d: %w", k+1, err)
		}
		var r setupResult
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("set-up process %d: %w", k+1, err)
		}
		tally.other.attempted.Add(r.Checked)
		tally.other.failed.Add(r.Failed)
		out = append(out, r)
	}
	return out, nil
}

func run(name string, p params, benchPath, spansPath string) (*result, error) {
	sp, err := loadSpec(benchPath)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(name, p)
	if err != nil {
		return nil, err
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s tune=%s\n",
		p.nproc, runtime.GOMAXPROCS(0), runtime.Version(), partree.ActiveProfileHash())
	fmt.Printf("workload: %s seed=%d seconds=%g callers=%d traced=%v\n", name, p.seed, p.seconds, w.callers, p.traced)

	var setups []setupResult
	var ref reference
	if !p.traced {
		if setups, err = measureSetups(name, p); err != nil {
			return nil, err
		}
		if ref, err = w.newReference(p); err != nil {
			return nil, err
		}
		defer ref.close()
		if _, err := ref.probe(); err != nil { // warms the reference up
			return nil, err
		}
	}

	// Everything the benchmark itself keeps (inputs, expected answers, op
	// records) exists before this baseline, so mem_live_mb counts only
	// what the system under test holds.
	recs := make([]opRecord, w.ops)
	base := liveHeap()
	if err := w.sys.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	ph := timedPhase(w, recs, p, ref)
	n := ph.n

	// Teardown waits for every handler to return, so every span is
	// recorded before the layers read them.
	w.sys.teardown()
	if ph.probeErr != nil {
		return nil, ph.probeErr
	}
	if ph.ranOut {
		return nil, fmt.Errorf("the generated inputs ran out after %d ops in %.3fs of %gs; the workload's rate cap is too low",
			n, ph.elapsed.Seconds(), p.seconds)
	}
	timed, failed := tally.timed.attempted.Load(), tally.timed.failed.Load()
	fmt.Printf("ops: attempted=%d succeeded=%d failed=%d in %.3fs (one op = %s)\n",
		timed, timed-failed, failed, ph.elapsed.Seconds(), w.opName)

	var out map[string]metric
	if p.traced {
		m := metrics{}
		w.sys.layers(m, ph.deltas, recs[:n])
		commonLayers(m, ph, recs[:n], w.callers)
		if out, err = report(sp.PerLayer, m, true); err != nil {
			return nil, err
		}
		if spansPath != "" {
			if err := writeSpans(spansPath, w.sys); err != nil {
				return nil, err
			}
		}
		printMetrics("per-layer", out, nil)
	} else {
		ok := float64(timed - failed)
		var setupScaled, setupCPU, setupWall []float64
		for _, r := range setups {
			setupScaled = append(setupScaled, r.Scaled)
			setupCPU = append(setupCPU, r.CPU)
			setupWall = append(setupWall, r.Wall)
		}
		m := metrics{}
		m.set("setup_s", median(setupScaled))
		m.set("ref_cpu_ms_per_op", scaled(ph.cpu, ref, ph.probes)*1e3/ok)
		m.set("mem_live_mb", (median(ph.heaps)-base)/(1<<20))
		if out, err = report(sp.EndToEnd, m, false); err != nil {
			return nil, err
		}
		printMetrics("end-to-end", out, map[string]string{
			"setup_s":           fmt.Sprintf("set-up CPU time at reference speed, median of %d set-up processes", len(setups)),
			"ref_cpu_ms_per_op": fmt.Sprintf("timed-phase CPU time at reference speed / %.0f succeeded ops, %d reference probes", ok, len(ph.probes)),
			"mem_live_mb":       fmt.Sprintf("live heap after GC at timed ops %v (median), minus the pre-setup baseline", ph.heapAt),
		})
		probeMS := make([]float64, len(ph.probes))
		for i, d := range ph.probes {
			probeMS[i] = d.Seconds() * 1e3
		}
		fmt.Printf("  raw CPU time: %.6g ms per op; reference %.6g ms per unit (median), %.6g nominal\n",
			ph.cpu.Seconds()*1e3/ok, median(probeMS), ref.nominal().Seconds()*1e3)
		fmt.Printf("  set-up processes, scaled CPU: %s s\n", list(setupScaled))
		fmt.Printf("  set-up processes, raw CPU:    %s s\n", list(setupCPU))
		fmt.Printf("  set-up processes, wall:       %s s\n", list(setupWall))
		win := windowed(recs[:n], p.seconds)
		fmt.Printf("wall-clock, not gated (they follow the host's load): throughput %.6g/s and p50 %.6g ms "+
			"(medians of %d and %d windows), p%g %.6g ms, p99 over all %d ops %.6g ms\n",
			win.thr, win.p50, win.thrWindows, win.latWindows, tailQ*100, win.tail, n, win.p99)
	}
	other, otherFailed := tally.other.attempted.Load(), tally.other.failed.Load()
	fmt.Printf("other checked answers (warm-up passes, probes): %d, %d wrong\n", other, otherFailed)
	return &result{Correct: failed == 0 && otherFailed == 0, Attempted: timed, Failed: failed, Metrics: out}, nil
}

// list formats vs to four significant digits.
func list(vs []float64) string {
	s := make([]string, len(vs))
	for i, v := range vs {
		s[i] = strconv.FormatFloat(v, 'g', 4, 64)
	}
	return strings.Join(s, " ")
}

func printMetrics(title string, m map[string]metric, samples map[string]string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s:\n", title)
	for _, k := range names {
		line := fmt.Sprintf("  %-34s %14.6g %-6s", k, m[k].Value, m[k].Unit)
		if s := samples[k]; s != "" {
			line += "  " + s
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

type phaseResult struct {
	n        int
	elapsed  time.Duration
	cpu      time.Duration   // process CPU time of the timed phase, heap measurements excluded
	heaps    []float64       // live heap after a forced GC at each of heapMarks
	heapAt   []int           // ops done when each heap was measured
	probes   []time.Duration // the host reference's CPU time per unit, once every probePeriod
	probeErr error
	deltas   deltas
	ranOut   bool // a caller wanted an op beyond the generated inputs
}

// probePeriod is how often an untraced run pauses its callers to probe
// the host reference.
const probePeriod = time.Second

// armPeriod is the length of one untraced or traced window of a traced
// run; alternating them spreads host drift over both arms.
const armPeriod = time.Second

// heapMarks are the points, as multiples of memAt done ops, at which an
// untraced run measures the live heap; mem_live_mb is the median. The
// shared arena's free lists move by several MB between measurements.
var heapMarks = []float64{1, 1.5, 2}

// timedPhase runs the closed loop: each caller issues its next op only
// when the previous one has been answered and checked. In an untraced
// run, at each of heapMarks, the callers pause while the live heap is
// measured, so the heap holds no op in flight and the caches hold the
// same requests on every run of a seed, however fast the host runs.
func timedPhase(w *workload, recs []opRecord, p params, ref reference) phaseResult {
	var next, done atomic.Int64
	var arm atomic.Bool
	var gate sync.RWMutex
	var heaps []float64
	var heapAt []int
	var pauseCPU time.Duration
	measureHeap := func() {
		gate.Lock()
		defer gate.Unlock()
		c0 := cpuTime()
		heaps, heapAt = append(heaps, liveHeap()), append(heapAt, int(done.Load()))
		pauseCPU += cpuTime() - c0
	}
	// The callers that complete the marked ops signal heapNow; the end of
	// the phase closes it and measures the marks not reached.
	marks := map[int64]bool{}
	for _, f := range heapMarks {
		marks[int64(f*float64(w.memAt))] = true
	}
	// Every probePeriod the callers pause while the host reference runs.
	var probes []time.Duration
	var probeErr error
	probeStop := make(chan struct{})
	var probeWG sync.WaitGroup
	if !p.traced {
		probeWG.Add(1)
		go func() {
			defer probeWG.Done()
			tick := time.NewTicker(probePeriod)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
				case <-probeStop:
					return
				}
				gate.Lock()
				c0 := cpuTime()
				d, err := ref.probe()
				pauseCPU += cpuTime() - c0
				gate.Unlock()
				if err != nil {
					probeErr = err
					return
				}
				probes = append(probes, d)
			}
		}()
	}
	var heapWG sync.WaitGroup
	heapNow := make(chan struct{}, len(marks))
	if !p.traced {
		heapWG.Add(1)
		go func() {
			defer heapWG.Done()
			for range heapNow {
				measureHeap()
			}
			if len(heaps) < len(marks) {
				fmt.Fprintf(os.Stderr, "perfbench: only %d ops were done; the live heap was measured at the end\n", done.Load())
				for len(heaps) < len(marks) {
					measureHeap()
				}
			}
		}()
	}
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(p.seconds * float64(time.Second)))

	stop := make(chan struct{})
	armDone := make(chan deltas, 1)
	if p.traced {
		go func() {
			d := deltas{all: map[string]float64{}, untraced: map[string]float64{}}
			tick := time.NewTicker(armPeriod)
			defer tick.Stop()
			prev := snapshot(w.sys)
			for {
				var last bool
				select {
				case <-tick.C:
				case <-stop:
					last = true
				}
				cur := snapshot(w.sys)
				for k, v := range cur {
					d.all[k] += v - prev[k]
					if !arm.Load() {
						d.untraced[k] += v - prev[k]
					}
				}
				prev = cur
				if last {
					armDone <- d
					return
				}
				arm.Store(!arm.Load())
			}
		}()
	}

	var wg sync.WaitGroup
	for c := 0; c < w.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				gate.RLock()
				i := int(next.Add(1) - 1)
				if i >= len(recs) {
					gate.RUnlock()
					return
				}
				traced := arm.Load()
				t0 := time.Now()
				lat, err := w.sys.op(i, traced)
				end := time.Now()
				recs[i] = opRecord{lat: lat, wall: end.Sub(t0), end: end.Sub(start), ok: record(&tally.timed, err), traced: traced}
				gate.RUnlock()
				if marks[done.Add(1)] && !p.traced {
					heapNow <- struct{}{}
				}
			}
		}()
	}
	wg.Wait()
	close(probeStop)
	probeWG.Wait()
	close(stop)
	if !p.traced {
		close(heapNow)
		heapWG.Wait()
	}
	cpu := cpuTime() - cpu0 - pauseCPU
	var d deltas
	if p.traced {
		d = <-armDone
	}
	n := min(int(next.Load()), len(recs))
	var elapsed time.Duration
	for _, r := range recs[:n] {
		elapsed = max(elapsed, r.end)
	}
	return phaseResult{n: n, elapsed: elapsed, cpu: cpu, heaps: heaps, heapAt: heapAt, probes: probes, probeErr: probeErr, deltas: d,
		ranOut: next.Load() > int64(len(recs))}
}

// cpuTime is the process's CPU time, user and system, over all threads.
// Time the host gives to other guests is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tailQ is the tail percentile the report prints next to p99.
const tailQ = 0.9

type windows struct {
	thr, p50, tail, p99    float64
	thrWindows, latWindows int
}

// windowed computes the wall-clock figures of the timed ops, each as the
// median over consecutive windows of the phase (ops in completion order,
// about one second each), so a burst of host noise within a run moves
// only the windows it touches. A throughput window holds at least 8 ops;
// a latency window holds enough ops for 50 to lie beyond the tail
// percentile. A failed op counts in no throughput and misses every
// latency limit.
func windowed(recs []opRecord, seconds float64) windows {
	ops := append([]opRecord(nil), recs...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	n := len(ops)
	perSecond := max(1, n/max(1, int(seconds)))
	var w windows
	var thr, p50, tail []float64
	split(n, max(8, perSecond), func(lo, hi int) {
		from := time.Duration(0)
		if lo > 0 {
			from = ops[lo-1].end
		}
		ok := 0
		for _, r := range ops[lo:hi] {
			if r.ok {
				ok++
			}
		}
		thr = append(thr, float64(ok)/(ops[hi-1].end-from).Seconds())
	})
	split(n, max(perSecond, int(math.Ceil(50/(1-tailQ)))), func(lo, hi int) {
		lats := sortedLatencies(ops[lo:hi])
		p50 = append(p50, quantile(lats, 0.5))
		tail = append(tail, quantile(lats, tailQ))
	})
	w.thr, w.p50, w.tail = median(thr), median(p50), median(tail)
	w.p99 = quantile(sortedLatencies(ops), 0.99)
	w.thrWindows, w.latWindows = len(thr), len(p50)
	return w
}

// sortedLatencies returns the ops' latencies in ms, sorted. A failed op
// counts as infinitely slow.
func sortedLatencies(ops []opRecord) []float64 {
	lats := make([]float64, 0, len(ops))
	for _, r := range ops {
		if r.ok {
			lats = append(lats, r.lat.Seconds()*1e3)
		} else {
			lats = append(lats, math.Inf(1))
		}
	}
	sort.Float64s(lats)
	return lats
}

// split calls f on consecutive [lo, hi) ranges of 0..n-1 of at least
// size elements each (one range when n < size).
func split(n, size int, f func(lo, hi int)) {
	k := max(1, n/size)
	for i := 0; i < k; i++ {
		f(i*n/k, (i+1)*n/k)
	}
}

// snapshot reads every cumulative counter: the process's, the shared
// arena's and machine pool's, and the workload's own.
func snapshot(sys system) map[string]float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	mp := partree.MachinePoolStats()
	m := map[string]float64{
		"wall_s":         float64(time.Now().UnixNano()) / 1e9,
		"cpu_s":          cpu.Seconds(),
		"mallocs":        float64(ms.Mallocs),
		"mp.constructed": float64(mp.Constructed),
		"mp.reused":      float64(mp.Reused),
	}
	for _, sh := range pool.PerShard() {
		m["pool.gets"] += float64(sh.Gets)
		m["pool.hits"] += float64(sh.Hits)
	}
	sys.counters(m)
	return m
}

// commonLayers sets the per-layer metrics every workload has: the
// runtime's per-op costs, the arena and machine pool, and the tracing
// overhead as traced versus untraced throughput.
func commonLayers(out metrics, ph phaseResult, recs []opRecord, callers int) {
	u := ph.deltas.untraced
	var thr [2]float64
	var ops [2]int
	var busy [2]time.Duration
	for _, r := range recs {
		k := 0
		if r.traced {
			k = 1
		}
		busy[k] += r.wall
		if r.ok {
			ops[k]++
		}
	}
	for k := range thr {
		thr[k] = float64(ops[k]) / (busy[k].Seconds() / float64(callers))
	}
	out.set("trace.overhead_frac", 1-thr[1]/thr[0])
	out.set("runtime.allocs_per_op", u["mallocs"]/float64(ops[0]))
	out.set("runtime.cpu_per_op_ms", u["cpu_s"]*1e3/float64(ops[0]))
	out.set("runtime.cpu_util", u["cpu_s"]/u["wall_s"])
	a := ph.deltas.all
	out.set("pool.hit_ratio", a["pool.hits"]/a["pool.gets"])
	out.set("partree.machines_constructed", a["mp.constructed"])
	out.set("partree.machines_reused", a["mp.reused"])
	fmt.Printf("tracing: untraced %.1f ops/s over %d ops, traced %.1f ops/s over %d ops\n",
		thr[0], ops[0], thr[1], ops[1])
}

func writeSpans(path string, sys system) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := sys.writeSpans(json.NewEncoder(f)); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// liveHeap is the live heap in bytes after a forced collection.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(0, int(math.Ceil(q*float64(len(sorted))))-1)]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// medianUS is the median of durations in microseconds.
func medianUS(ds []time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d) / float64(time.Microsecond)
	}
	return median(vs)
}

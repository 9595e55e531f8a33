// Command benchgate is the perf-regression gate. It reads the E11–E14
// and E16 BENCH-JSON lines from stdin — pipe `benchtables -exp
// E11,E12,E13,E14,E16` into it — and checks them against one table
// of budgets (rules, below) and the committed baseline file. Every row
// prints one ok, FAIL or SKIP line; any FAIL exits 1.
//
// A row names the experiment it reads, a metric selector, a comparator,
// a bound for full runs and one for -short runs, how the bound, the
// selector's reference value and its measured noise make the limit, and
// an arming condition. Whether the run is short comes from the E12 and
// E16 reports, which record it, so the only flags are -baseline and
// -write. A row whose measurement the host cannot make (a 4-way speedup
// on fewer than 4 cores) or whose baseline is not comparable (an
// allocation count recorded at another GOMAXPROCS) prints SKIP with the
// reason instead of gating.
//
// Two experiments do not measure their "before" arm: the unpooled E11
// rows and E14's dispatch_spawn_ns were measured once, against the code
// the workspace arena and the resident worker pool replaced, and live
// only in the baseline. Their rows are budgets against those recorded
// numbers, with wall-clock time normalized by each side's E13
// calibration spin so host-speed drift divides out. -write rewrites the
// baseline from the current run and carries the recorded arms forward,
// rescaling their ns to the new calibration so their normalized cost is
// unchanged; it therefore needs the existing baseline file.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

type row struct {
	Kernel   string  `json:"kernel"`
	Pooled   bool    `json:"pooled"`
	NsOp     float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
	BytesOp  int64   `json:"bytes_op"`
}

type e11Report struct {
	Experiment string `json:"experiment"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Runs       []row  `json:"runs"`
}

type e12Row struct {
	P         int     `json:"p"`
	NsOp      float64 `json:"ns_op"`
	Speedup   float64 `json:"speedup"`
	BarrierMS float64 `json:"barrier_ms"`
}

type e12Kernel struct {
	Kernel string   `json:"kernel"`
	Rows   []e12Row `json:"rows"`
}

type e12Report struct {
	Experiment string      `json:"experiment"`
	CPUs       int         `json:"cpus"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Short      bool        `json:"short"`
	Kernels    []e12Kernel `json:"kernels"`
}

type e13Row struct {
	Kernel    string  `json:"kernel"`
	Armed     bool    `json:"armed"`
	NsOp      float64 `json:"ns_op"`
	AllocsOp  int64   `json:"allocs_op"`
	BytesOp   int64   `json:"bytes_op"`
	NoiseFrac float64 `json:"noise_frac"`
}

type e13Report struct {
	Experiment string   `json:"experiment"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Reps       int      `json:"reps"`
	CalNsOp    float64  `json:"cal_ns_op"`
	CalNoise   float64  `json:"cal_noise_frac"`
	Runs       []e13Row `json:"runs"`
}

// e14Report mirrors benchtables' E14 payload (the "report" object of
// its BENCH-JSON envelope). DispatchSpawnNs is only ever set in the
// baseline: it is the recorded spawn-per-statement arm.
type e14Report struct {
	GoMaxProcs int `json:"gomaxprocs"`
	Reps       int `json:"reps"`
	Workers    int `json:"workers"`
	N          int `json:"n"`
	Grain      int `json:"grain"`

	DispatchSpawnNs    float64 `json:"dispatch_spawn_ns"`
	DispatchResidentNs float64 `json:"dispatch_resident_ns"`
	NoiseFrac          float64 `json:"noise_frac"`

	SpawnedPer10k     int64   `json:"spawned_per_10k"`
	ConstructedPer10k int64   `json:"constructed_per_10k"`
	ReusedPer10k      int64   `json:"reused_per_10k"`
	BatchNsOp         float64 `json:"batch_ns_op"`
}

// e16Row / e16Report mirror benchtables' E16 payload (the "report"
// object of its BENCH-JSON envelope).
type e16Row struct {
	Backends  int     `json:"backends"`
	WallMS    float64 `json:"wall_ms"`
	ReqPerSec float64 `json:"req_per_sec"`
}

type e16Report struct {
	CPUs       int      `json:"cpus"`
	GoMaxProcs int      `json:"gomaxprocs"`
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

// reports is one run's E11–E14 and E16 reports, or the baseline's copy
// of them.
type reports struct {
	E11 *e11Report `json:"e11"`
	E12 *e12Report `json:"e12"`
	E13 *e13Report `json:"e13"`
	E14 *e14Report `json:"e14"`
	E16 *e16Report `json:"e16"`
}

func (r *reports) complete() bool {
	return r.E11 != nil && r.E12 != nil && r.E13 != nil && r.E14 != nil && r.E16 != nil
}

// baseline is the committed BENCH_BASELINE.json, schema 2.
type baseline struct {
	Schema int `json:"schema"`
	reports
}

// A sample is one measured value a row gates.
type sample struct {
	label string  // kernel or quantity, printed on the row's line
	got   float64 // the measured value
	ref   float64 // the reference the bound scales (unused by fixed limits)
	noise float64 // rep-to-rep noise measured on both sides (noisy bands only)
}

type comparator bool

const (
	atMost  comparator = false
	atLeast comparator = true
)

// A limitForm combines a row's bound with a sample into the limit the
// sample's value is compared against; it is the row's noise policy too.
type limitForm func(bound float64, s sample) float64

var (
	// fixed: the bound is the limit.
	fixed limitForm = func(b float64, _ sample) float64 { return b }
	// scaled: a budget of bound × the reference.
	scaled limitForm = func(b float64, s sample) float64 { return b * s.ref }
	// allocBand: the reference plus a bound fraction plus 16 allocs/op,
	// so a tiny count can still grow by a few allocations.
	allocBand limitForm = func(b float64, s sample) float64 { return math.Floor(s.ref*(1+b)) + 16 }
	// noisyBand: the reference plus a bound fraction widened by the noise
	// both sides measured, so a quiet host gates tight and a noisy one
	// stays honest instead of flaky.
	noisyBand limitForm = func(b float64, s sample) float64 { return s.ref * (1 + b + s.noise) }
)

// A rule is one row of the gate.
type rule struct {
	exp    string                                     // experiment the row reads
	metric string                                     // what is gated, printed on the row's line
	sel    func(cur, base *reports) ([]sample, error) // metric selector
	cmp    comparator
	full   float64 // bound in a full run
	short  float64 // bound in a -short run
	limit  limitForm
	armed  func(cur, base *reports) string // "" when armed, else why the row is skipped; nil: always armed
}

// rules is the gate. Every bound is an absolute budget: no row needs a
// control arm measured in the same run.
var rules = []rule{
	{exp: "E11", metric: "pooled allocs/op, budget vs recorded unpooled", sel: e11AllocBudget,
		cmp: atMost, full: 0.30, short: 0.30, limit: scaled},
	{exp: "E11", metric: "pooled ns/op per cal, budget vs recorded unpooled", sel: e11NsBudget,
		cmp: atMost, full: 1.25, short: 1.25, limit: scaled},
	{exp: "E11", metric: "pooled allocs/op vs baseline", sel: e11AllocsVsBaseline,
		cmp: atMost, full: 0.15, short: 0.15, limit: allocBand},
	{exp: "E12", metric: "speedup at P=4", sel: e12Speedup,
		cmp: atLeast, full: 2.0, short: 1.65, limit: fixed,
		armed: coresAtLeast(4, func(r *reports) int { return r.E12.CPUs })},
	{exp: "E13", metric: "disarmed ns/op per cal vs baseline", sel: e13NsVsBaseline,
		cmp: atMost, full: 0.02, short: 0.17, limit: noisyBand},
	{exp: "E13", metric: "disarmed allocs/op vs this run's E11 pooled", sel: e13AllocsVsE11,
		cmp: atMost, full: 0, short: 0, limit: allocBand},
	{exp: "E13", metric: "disarmed allocs/op vs baseline", sel: e13AllocsVsBaseline,
		cmp: atMost, full: 1, short: 1, limit: scaled, armed: sameE13Shape},
	{exp: "E14", metric: "resident ns/For per cal, budget vs recorded spawn", sel: e14DispatchBudget,
		cmp: atMost, full: 0.60, short: 0.70, limit: scaled},
	{exp: "E14", metric: "goroutines spawned per 10k statements",
		sel: value("dispatch", func(r *reports) float64 { return float64(r.E14.SpawnedPer10k) }),
		cmp: atMost, full: 0, short: 0, limit: fixed},
	{exp: "E14", metric: "machines constructed per 10k batches",
		sel: value("dispatch", func(r *reports) float64 { return float64(r.E14.ConstructedPer10k) }),
		cmp: atMost, full: 0, short: 0, limit: fixed},
	{exp: "E16", metric: "4-backend/1-backend throughput", sel: e16Scaling,
		cmp: atLeast, full: 1.8, short: 1.55, limit: fixed,
		armed: coresAtLeast(4, func(r *reports) int { return r.E16.CPUs })},
	{exp: "E16", metric: "hedged p99 improvement over unhedged", sel: e16HedgeGain,
		cmp: atLeast, full: 0.10, short: 0.05, limit: fixed},
	{exp: "E16", metric: "hedges fired on the tail-injected load",
		sel: value("cluster", func(r *reports) float64 { return float64(r.E16.HedgesFired) }),
		cmp: atLeast, full: 1, short: 1, limit: fixed},
	{exp: "E16", metric: "failed client requests",
		sel: value("cluster", func(r *reports) float64 { return float64(r.E16.Failures) }),
		cmp: atMost, full: 0, short: 0, limit: fixed},
}

// value selects one number from the run.
func value(label string, get func(cur *reports) float64) func(cur, base *reports) ([]sample, error) {
	return func(cur, _ *reports) ([]sample, error) { return []sample{{label: label, got: get(cur)}}, nil }
}

// coresAtLeast arms a scaling row only on a host with the cores it
// measures: wall-clock speedup beyond the core count is impossible.
func coresAtLeast(n int, cpus func(*reports) int) func(cur, base *reports) string {
	return func(cur, _ *reports) string {
		if c := cpus(cur); c < n {
			return fmt.Sprintf("host reports %d CPU(s) < %d; run on a >=%d-core host to enforce", c, n, n)
		}
		return ""
	}
}

// sameE13Shape arms the baseline allocation comparison only when the run
// and the baseline share a GOMAXPROCS: the parallel kernels' allocation
// counts depend on it.
func sameE13Shape(cur, base *reports) string {
	if c, b := cur.E13.GoMaxProcs, base.E13.GoMaxProcs; c != b {
		return fmt.Sprintf("run has GOMAXPROCS=%d, baseline GOMAXPROCS=%d; allocation counts differ across host shapes", c, b)
	}
	return ""
}

// pairs gates each of rows that kernel selects against refs[kernel],
// which carries the reference value and the noise its side measured; a
// kernel without a reference is an error.
func pairs[R any](rows []R, kernel func(R) (string, bool), refs map[string]sample, measure func(R) sample) ([]sample, error) {
	var out []sample
	for _, r := range rows {
		k, ok := kernel(r)
		if !ok {
			continue
		}
		ref, ok := refs[k]
		if !ok {
			return nil, fmt.Errorf("%s has no reference row", k)
		}
		s := measure(r)
		s.label, s.ref, s.noise = k, ref.ref, s.noise+ref.noise
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, errors.New("report has no rows to gate")
	}
	return out, nil
}

func pooledRow(r row) (string, bool)      { return r.Kernel, r.Pooled }
func disarmedRow(r e13Row) (string, bool) { return r.Kernel, !r.Armed }
func allocs(r row) float64                { return float64(r.AllocsOp) }
func e11Allocs(r row) sample              { return sample{got: allocs(r)} }
func e13Allocs(r e13Row) sample           { return sample{got: float64(r.AllocsOp)} }

// e11Refs indexes one arm of an E11 run set as references.
func e11Refs(rep *e11Report, pooled bool, val func(row) float64) map[string]sample {
	out := make(map[string]sample)
	for _, r := range rep.Runs {
		if r.Pooled == pooled {
			out[r.Kernel] = sample{ref: val(r)}
		}
	}
	return out
}

// e13Refs indexes the disarmed rows of an E13 run set as references.
func e13Refs(rep *e13Report, ref func(e13Row) sample) map[string]sample {
	out := make(map[string]sample)
	for _, r := range rep.Runs {
		if !r.Armed {
			out[r.Kernel] = ref(r)
		}
	}
	return out
}

// cals returns the run's and the baseline's E13 calibration spins.
func cals(cur, base *reports) (float64, float64, error) {
	if cur.E13.CalNsOp <= 0 || base.E13.CalNsOp <= 0 {
		return 0, 0, errors.New("E13 calibration spin missing from the run or the baseline")
	}
	return cur.E13.CalNsOp, base.E13.CalNsOp, nil
}

func e11AllocBudget(cur, base *reports) ([]sample, error) {
	return pairs(cur.E11.Runs, pooledRow, e11Refs(base.E11, false, allocs), e11Allocs)
}

func e11NsBudget(cur, base *reports) ([]sample, error) {
	cc, bc, err := cals(cur, base)
	if err != nil {
		return nil, err
	}
	return pairs(cur.E11.Runs, pooledRow, e11Refs(base.E11, false, func(r row) float64 { return r.NsOp / bc }),
		func(r row) sample { return sample{got: r.NsOp / cc} })
}

func e11AllocsVsBaseline(cur, base *reports) ([]sample, error) {
	return pairs(cur.E11.Runs, pooledRow, e11Refs(base.E11, true, allocs), e11Allocs)
}

func e12Speedup(cur, _ *reports) ([]sample, error) {
	var out []sample
	for _, name := range []string{"monge-cutsmawk", "boolmat-mulpar"} {
		s := sample{label: name, got: math.NaN()}
		for _, k := range cur.E12.Kernels {
			for _, r := range k.Rows {
				if k.Kernel == name && r.P == 4 {
					s.got = r.Speedup
				}
			}
		}
		if math.IsNaN(s.got) {
			return nil, fmt.Errorf("kernel %q has no P=4 row", name)
		}
		out = append(out, s)
	}
	return out, nil
}

// e13NsVsBaseline normalizes both sides by their own calibration spin;
// the band widens by the rep noise both runs and both spins measured.
func e13NsVsBaseline(cur, base *reports) ([]sample, error) {
	cc, bc, err := cals(cur, base)
	if err != nil {
		return nil, err
	}
	refs := e13Refs(base.E13, func(r e13Row) sample {
		return sample{ref: r.NsOp / bc, noise: r.NoiseFrac + base.E13.CalNoise}
	})
	return pairs(cur.E13.Runs, disarmedRow, refs, func(r e13Row) sample {
		return sample{got: r.NsOp / cc, noise: r.NoiseFrac + cur.E13.CalNoise}
	})
}

// e13AllocsVsE11 holds the disarmed tracer to the allocations of the
// same kernel measured by E11 in the same run: a disarmed tracer is a
// nil pointer compare and must not allocate. Above GOMAXPROCS=1 the
// count drifts by a few allocs/op between measurements (which arena
// shard serves a slab depends on scheduling), so the row keeps the
// allocation band's 16 allocs/op of slack; a tracer that allocated per
// statement or per phase would add thousands.
func e13AllocsVsE11(cur, _ *reports) ([]sample, error) {
	return pairs(cur.E13.Runs, disarmedRow, e11Refs(cur.E11, true, allocs), e13Allocs)
}

func e13AllocsVsBaseline(cur, base *reports) ([]sample, error) {
	refs := e13Refs(base.E13, func(r e13Row) sample { return sample{ref: float64(r.AllocsOp)} })
	return pairs(cur.E13.Runs, disarmedRow, refs, e13Allocs)
}

func e14DispatchBudget(cur, base *reports) ([]sample, error) {
	cc, bc, err := cals(cur, base)
	if err != nil {
		return nil, err
	}
	if base.E14.DispatchSpawnNs <= 0 {
		return nil, errors.New("baseline has no recorded dispatch_spawn_ns")
	}
	return []sample{{label: "dispatch", got: cur.E14.DispatchResidentNs / cc, ref: base.E14.DispatchSpawnNs / bc}}, nil
}

func e16Scaling(cur, _ *reports) ([]sample, error) {
	rps := make(map[int]float64, len(cur.E16.Throughput))
	for _, r := range cur.E16.Throughput {
		rps[r.Backends] = r.ReqPerSec
	}
	if rps[1] <= 0 || rps[4] <= 0 {
		return nil, errors.New("E16 report is missing the 1- or 4-backend throughput row")
	}
	return []sample{{label: "cluster", got: rps[4] / rps[1]}}, nil
}

func e16HedgeGain(cur, _ *reports) ([]sample, error) {
	r := cur.E16
	if r.UnhedgedP99MS <= 0 || r.HedgedP99MS <= 0 {
		return nil, errors.New("E16 report is missing the hedged or unhedged p99")
	}
	return []sample{{label: "cluster", got: 1 - r.HedgedP99MS/r.UnhedgedP99MS}}, nil
}

// A result is one printed line of the gate: a sample's verdict, or a
// whole row's SKIP or selector failure.
type result struct {
	rule       *rule
	label      string
	verdict    string // "ok", "FAIL" or "SKIP"
	got, limit float64
	note       string // why a row was skipped or could not be measured
}

func (r result) String() string {
	head := fmt.Sprintf("benchgate: %-4s %s %s", r.verdict, r.rule.exp, r.rule.metric)
	if r.label != "" {
		head += " [" + r.label + "]"
	}
	if r.note != "" {
		return head + ": " + r.note
	}
	op := "<="
	if r.rule.cmp == atLeast {
		op = ">="
	}
	return fmt.Sprintf("%s: %.6g %s %.6g", head, r.got, op, r.limit)
}

// shortRun reports whether the run used benchtables -short; E12 and E16
// record it and must agree.
func shortRun(cur *reports) (bool, error) {
	if cur.E12.Short != cur.E16.Short {
		return false, errors.New("E12 and E16 disagree on -short; pipe in one benchtables run")
	}
	return cur.E12.Short, nil
}

// evaluate applies every rule to the run and the baseline.
func evaluate(cur, base *reports) ([]result, error) {
	short, err := shortRun(cur)
	if err != nil {
		return nil, err
	}
	var out []result
	for i := range rules {
		r := &rules[i]
		bound := r.full
		if short {
			bound = r.short
		}
		if r.armed != nil {
			if why := r.armed(cur, base); why != "" {
				out = append(out, result{rule: r, verdict: "SKIP", limit: bound, note: why})
				continue
			}
		}
		samples, err := r.sel(cur, base)
		if err != nil {
			out = append(out, result{rule: r, verdict: "FAIL", note: err.Error()})
			continue
		}
		for _, s := range samples {
			lim := r.limit(bound, s)
			verdict := "ok"
			if (r.cmp == atMost && s.got > lim) || (r.cmp == atLeast && s.got < lim) {
				verdict = "FAIL"
			}
			out = append(out, result{rule: r, label: s.label, verdict: verdict, got: s.got, limit: lim})
		}
	}
	return out, nil
}

// readReports scans the E11–E14 and E16 BENCH-JSON lines out of
// benchtables' output; E14 and E16 wrap their payload in a "report"
// object.
func readReports(in io.Reader) (*reports, error) {
	var cur reports
	dst := map[string]any{"E11": &cur.E11, "E12": &cur.E12, "E13": &cur.E13, "E14": &cur.E14, "E16": &cur.E16}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		blob, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "BENCH-JSON ")
		if !ok {
			continue
		}
		var env struct {
			Experiment string          `json:"experiment"`
			Report     json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal([]byte(blob), &env); err != nil {
			return nil, fmt.Errorf("parsing BENCH-JSON line: %w", err)
		}
		d, ok := dst[env.Experiment]
		if !ok {
			continue
		}
		payload := []byte(blob)
		if env.Report != nil {
			payload = env.Report
		}
		if err := json.Unmarshal(payload, d); err != nil {
			return nil, fmt.Errorf("parsing %s BENCH-JSON: %w", env.Experiment, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !cur.complete() {
		return nil, errors.New("need the E11, E12, E13, E14 and E16 BENCH-JSON lines on stdin (pipe `benchtables -exp E11,E12,E13,E14,E16` in)")
	}
	return &cur, nil
}

// readBaseline parses the committed baseline. Every section is required:
// the recorded arms cannot be re-measured, so there is no gating — or
// rewriting — without them.
func readBaseline(path string) (*reports, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(blob, &b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if b.Schema != 2 || !b.complete() {
		return nil, fmt.Errorf("%s is not a schema-2 baseline with e11 through e16 sections", path)
	}
	return &b.reports, nil
}

// writeBaseline replaces the baseline at path with the current run,
// carrying forward the recorded arms from the file it replaces. Their ns
// are rescaled to the run's calibration spin so the normalized cost the
// budgets read stays the same.
func writeBaseline(path string, cur, old *reports) error {
	cc, oc, err := cals(cur, old)
	if err != nil {
		return err
	}
	rescale := cc / oc
	e11 := *cur.E11
	e11.Runs = nil
	for _, r := range old.E11.Runs {
		if !r.Pooled {
			r.NsOp *= rescale
			e11.Runs = append(e11.Runs, r)
		}
	}
	for _, r := range cur.E11.Runs {
		if r.Pooled {
			e11.Runs = append(e11.Runs, r)
		}
	}
	e14 := *cur.E14
	e14.DispatchSpawnNs = old.E14.DispatchSpawnNs * rescale

	next := baseline{Schema: 2, reports: *cur}
	next.E11, next.E14 = &e11, &e14
	blob, err := json.MarshalIndent(next, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// run is the command: flags, stdin and stdout in, exit status out.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_BASELINE.json", "committed baseline file")
	write := fs.Bool("write", false, "rewrite the baseline from this run, keeping its recorded arms, instead of gating")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 1
	}
	cur, err := readReports(stdin)
	if err != nil {
		return fail(err)
	}
	base, err := readBaseline(*baselinePath)
	if err != nil {
		return fail(err)
	}
	if *write {
		if err := writeBaseline(*baselinePath, cur, base); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "benchgate: wrote %s (recorded E11 unpooled rows and E14 dispatch_spawn_ns carried forward)\n", *baselinePath)
		return 0
	}
	results, err := evaluate(cur, base)
	if err != nil {
		return fail(err)
	}
	failed := false
	for _, r := range results {
		fmt.Fprintln(stdout, r)
		failed = failed || r.verdict == "FAIL"
	}
	if failed {
		return 1
	}
	fmt.Fprintln(stdout, "benchgate: pass")
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

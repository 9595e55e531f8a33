package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixture is the BENCH-JSON output of one `benchtables -short` run
// on a 2-CPU host whose E11 and E14 still measured their unpooled and
// spawn arms, next to a copy of the committed baseline. The expected
// limits below are the ones the gate printed for that input when it
// still had those control arms and its -*-slack flags.
const (
	fixtureRun      = "testdata/short.benchjson"
	fixtureBaseline = "testdata/baseline.json"
)

func loadFixture(t *testing.T) (cur, base *reports) {
	t.Helper()
	f, err := os.Open(fixtureRun)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if cur, err = readReports(f); err != nil {
		t.Fatal(err)
	}
	if base, err = readBaseline(fixtureBaseline); err != nil {
		t.Fatal(err)
	}
	return cur, base
}

// lookup returns the results of the row gating metric of exp.
func lookup(t *testing.T, results []result, exp, metric string) []result {
	t.Helper()
	var out []result
	for _, r := range results {
		if r.rule.exp == exp && r.rule.metric == metric {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no result for %s %q", exp, metric)
	}
	return out
}

func mustEvaluate(t *testing.T, cur, base *reports) []result {
	t.Helper()
	results, err := evaluate(cur, base)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestBounds pins every row's full and short bound. The rows
// that existed before the control arms were retired keep their values
// (short = full minus the old -*-slack, or plus it for bands); the E11
// and E14 budgets replace the same-run ratio gates at the same margins.
func TestBounds(t *testing.T) {
	want := map[string][2]float64{
		"E11 pooled allocs/op, budget vs recorded unpooled":     {0.30, 0.30},
		"E11 pooled ns/op per cal, budget vs recorded unpooled": {1.25, 1.25},
		"E11 pooled allocs/op vs baseline":                      {0.15, 0.15},
		"E12 speedup at P=4":                                    {2.0, 1.65},
		"E13 disarmed ns/op per cal vs baseline":                {0.02, 0.17},
		"E13 disarmed allocs/op vs this run's E11 pooled":       {0, 0},
		"E13 disarmed allocs/op vs baseline":                    {1, 1},
		"E14 resident ns/For per cal, budget vs recorded spawn": {0.60, 0.70},
		"E14 goroutines spawned per 10k statements":             {0, 0},
		"E14 machines constructed per 10k batches":              {0, 0},
		"E16 4-backend/1-backend throughput":                    {1.8, 1.55},
		"E16 hedged p99 improvement over unhedged":              {0.10, 0.05},
		"E16 hedges fired on the tail-injected load":            {1, 1},
		"E16 failed client requests":                            {0, 0},
	}
	if len(rules) != len(want) {
		t.Errorf("gate has %d rows, want %d", len(rules), len(want))
	}
	for _, r := range rules {
		key := r.exp + " " + r.metric
		w, ok := want[key]
		if !ok {
			t.Errorf("unexpected row %q", key)
			continue
		}
		if r.full != w[0] || r.short != w[1] {
			t.Errorf("%s: bounds full=%v short=%v, want %v/%v", key, r.full, r.short, w[0], w[1])
		}
	}
}

// TestVerdictsMatchPreviousGate replays the fixture and checks each surviving row
// against the verdict and limit the gate printed for it before.
func TestVerdictsMatchPreviousGate(t *testing.T) {
	cur, base := loadFixture(t)
	results := mustEvaluate(t, cur, base)
	for _, c := range []struct {
		exp, metric, label, verdict string
		limit                       float64 // the printed limit; NaN skips the check
		tol                         float64
	}{
		// "pooled allocs/op 30236 vs baseline 29990 (limit 34504) ok"
		{"E11", "pooled allocs/op vs baseline", "lincfl-recognize", "ok", 34504, 0},
		{"E11", "pooled allocs/op vs baseline", "partreed-hot-path", "ok", 25, 0},
		// "SKIP speedup gate: host reports 2 CPU(s) < gate P=4"; the bound is 2.0 - 0.35.
		{"E12", "speedup at P=4", "", "SKIP", 1.65, 1e-9},
		// "disarmed normalized ns/op 71.8025 vs baseline 45.3521 (effective band 66.8%) ok"
		{"E13", "disarmed ns/op per cal vs baseline", "lincfl-recognize", "ok", 45.3521 * 1.668, 0.01},
		{"E13", "disarmed ns/op per cal vs baseline", "partreed-hot-path", "ok", 0.0029727 * 1.437, 2e-6},
		{"E14", "goroutines spawned per 10k statements", "dispatch", "ok", 0, 0},
		{"E14", "machines constructed per 10k batches", "dispatch", "ok", 0, 0},
		// "SKIP cluster scaling gate: host reports 2 CPU(s) < 4"; the bound is 1.8 - 0.25.
		{"E16", "4-backend/1-backend throughput", "", "SKIP", 1.55, 1e-9},
		// "72.3% improvement >= 5.0%, 31 hedges) ok"
		{"E16", "hedged p99 improvement over unhedged", "cluster", "ok", 0.05, 1e-9},
		{"E16", "hedges fired on the tail-injected load", "cluster", "ok", 1, 0},
		{"E16", "failed client requests", "cluster", "ok", 0, 0},
	} {
		found := false
		for _, r := range lookup(t, results, c.exp, c.metric) {
			if r.label != c.label {
				continue
			}
			found = true
			if r.verdict != c.verdict {
				t.Errorf("%s %s [%s]: verdict %s, want %s (%s)", c.exp, c.metric, c.label, r.verdict, c.verdict, r)
			}
			if !math.IsNaN(c.limit) && math.Abs(r.limit-c.limit) > c.tol {
				t.Errorf("%s %s [%s]: limit %v, want %v", c.exp, c.metric, c.label, r.limit, c.limit)
			}
		}
		if !found {
			t.Errorf("%s %s: no result labelled %q", c.exp, c.metric, c.label)
		}
	}
}

// TestNewRowsOnFixture checks the rows that replace the retired ratio
// gates and the E13 cross-shape comparison on the fixture.
func TestNewRowsOnFixture(t *testing.T) {
	cur, base := loadFixture(t)
	results := mustEvaluate(t, cur, base)
	for _, c := range []struct {
		exp, metric, label, verdict string
		limit                       float64
	}{
		{"E11", "pooled allocs/op, budget vs recorded unpooled", "lincfl-recognize", "ok", 0.30 * 160651},
		{"E11", "pooled allocs/op, budget vs recorded unpooled", "partreed-hot-path", "ok", 0.30 * 35},
		{"E11", "pooled ns/op per cal, budget vs recorded unpooled", "lincfl-recognize", "ok", 1.25 * 25147738 / 337747},
		{"E13", "disarmed allocs/op vs this run's E11 pooled", "lincfl-recognize", "ok", 30236 + 16},
		{"E13", "disarmed allocs/op vs baseline", "", "SKIP", 1},
		{"E14", "resident ns/For per cal, budget vs recorded spawn", "dispatch", "ok", 0.70 * 10001 / 337747.0},
	} {
		for _, r := range lookup(t, results, c.exp, c.metric) {
			if r.label != c.label {
				continue
			}
			if r.verdict != c.verdict || math.Abs(r.limit-c.limit) > 1e-9*math.Max(1, c.limit) {
				t.Errorf("%s: got %s limit %v, want %s limit %v", r, r.verdict, r.limit, c.verdict, c.limit)
			}
		}
	}
	for _, r := range results {
		if r.verdict == "FAIL" {
			t.Errorf("fixture should pass the gate: %s", r)
		}
	}
}

func TestPerturbations(t *testing.T) {
	for _, c := range []struct {
		name        string
		edit        func(cur *reports)
		exp, metric string
		verdict     string
	}{
		{"spawned goroutine", func(c *reports) { c.E14.SpawnedPer10k = 1 },
			"E14", "goroutines spawned per 10k statements", "FAIL"},
		{"constructed machine", func(c *reports) { c.E14.ConstructedPer10k = 1 },
			"E14", "machines constructed per 10k batches", "FAIL"},
		{"resident over budget", func(c *reports) { c.E14.DispatchResidentNs = 0.71 * 10001 / 337747 * c.E13.CalNsOp },
			"E14", "resident ns/For per cal, budget vs recorded spawn", "FAIL"},
		{"2 CPUs skip E12", func(c *reports) { c.E12.CPUs, c.E16.CPUs = 2, 2 },
			"E12", "speedup at P=4", "SKIP"},
		{"2 CPUs skip E16", func(c *reports) { c.E12.CPUs, c.E16.CPUs = 2, 2 },
			"E16", "4-backend/1-backend throughput", "SKIP"},
		// Armed on 4 CPUs, the fixture's 2-core speedups fall short:
		// boolmat-mulpar reached 1.54x and the cluster 0.93x.
		{"4 CPUs arm E12", func(c *reports) { c.E12.CPUs, c.E16.CPUs = 4, 4 },
			"E12", "speedup at P=4", "FAIL"},
		{"4 CPUs arm E16", func(c *reports) { c.E12.CPUs, c.E16.CPUs = 4, 4 },
			"E16", "4-backend/1-backend throughput", "FAIL"},
		// At the baseline's GOMAXPROCS the comparison arms, and the
		// 2-CPU count exceeds the 1-CPU record.
		{"same shape arms E13 allocs", func(c *reports) { c.E13.GoMaxProcs = 1 },
			"E13", "disarmed allocs/op vs baseline", "FAIL"},
		// One allocation over the run's E11 pooled lincfl-recognize
		// count plus the band's 16 allocs/op of slack.
		{"tracer allocates", func(c *reports) { c.E13.Runs[0].AllocsOp = 30236 + 17 },
			"E13", "disarmed allocs/op vs this run's E11 pooled", "FAIL"},
		{"failed request", func(c *reports) { c.E16.Failures = 1 },
			"E16", "failed client requests", "FAIL"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cur, base := loadFixture(t)
			c.edit(cur)
			var verdicts []string
			for _, r := range lookup(t, mustEvaluate(t, cur, base), c.exp, c.metric) {
				verdicts = append(verdicts, r.verdict)
			}
			if !strings.Contains(strings.Join(verdicts, " "), c.verdict) {
				t.Errorf("verdicts %v, want a %s", verdicts, c.verdict)
			}
		})
	}
}

func TestMissingE14Line(t *testing.T) {
	blob, err := os.ReadFile(fixtureRun)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(string(blob), "\n") {
		if !strings.Contains(line, `"experiment":"E14"`) {
			kept = append(kept, line)
		}
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-baseline", fixtureBaseline}, strings.NewReader(strings.Join(kept, "\n")), &out, &errOut)
	if code != 1 || !strings.Contains(errOut.String(), "need the E11") {
		t.Errorf("exit %d, stderr %q; want 1 and a missing-report error", code, errOut.String())
	}
}

func TestGatePasses(t *testing.T) {
	f, err := os.Open(fixtureRun)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out, errOut bytes.Buffer
	if code := run([]string{"-baseline", fixtureBaseline}, f, &out, &errOut); code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.HasSuffix(out.String(), "benchgate: pass\n") {
		t.Errorf("output does not end in pass:\n%s", out.String())
	}
}

// TestWritePreservesRecordedArms rewrites a copy of the baseline from the
// fixture run: the recorded unpooled E11 rows and E14 spawn cost must
// survive with their normalized cost unchanged — not be replaced by the
// fixture's own unpooled measurements — and the result must gate the
// same run.
func TestWritePreservesRecordedArms(t *testing.T) {
	cur, old := loadFixture(t)
	blob, err := os.ReadFile(fixtureBaseline)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(fixtureRun)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out, errOut bytes.Buffer
	if code := run([]string{"-baseline", path, "-write"}, f, &out, &errOut); code != 0 {
		t.Fatalf("-write exit %d: %s", code, errOut.String())
	}
	next, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	oldCal, newCal := old.E13.CalNsOp, next.E13.CalNsOp
	if newCal != cur.E13.CalNsOp {
		t.Errorf("written E13 cal %v, want the run's %v", newCal, cur.E13.CalNsOp)
	}
	norm := func(ns, cal float64) float64 { return math.Round(ns/cal*1e6) / 1e6 }
	recorded := e11Refs(old.E11, false, func(r row) float64 { return float64(r.AllocsOp) })
	written := 0
	for _, r := range next.E11.Runs {
		if r.Pooled {
			continue
		}
		written++
		var was row
		for _, o := range old.E11.Runs {
			if o.Kernel == r.Kernel && !o.Pooled {
				was = o
			}
		}
		if float64(r.AllocsOp) != recorded[r.Kernel].ref || r.BytesOp != was.BytesOp {
			t.Errorf("%s: unpooled row %+v, want the recorded %+v", r.Kernel, r, was)
		}
		if norm(r.NsOp, newCal) != norm(was.NsOp, oldCal) {
			t.Errorf("%s: unpooled ns/op per cal %v, want the recorded %v", r.Kernel, r.NsOp/newCal, was.NsOp/oldCal)
		}
	}
	if written != len(recorded) {
		t.Errorf("wrote %d unpooled rows, want the %d recorded", written, len(recorded))
	}
	if norm(next.E14.DispatchSpawnNs, newCal) != norm(old.E14.DispatchSpawnNs, oldCal) {
		t.Errorf("dispatch_spawn_ns per cal %v, want the recorded %v",
			next.E14.DispatchSpawnNs/newCal, old.E14.DispatchSpawnNs/oldCal)
	}
	if next.E14.DispatchResidentNs != cur.E14.DispatchResidentNs {
		t.Errorf("dispatch_resident_ns %v, want the run's %v", next.E14.DispatchResidentNs, cur.E14.DispatchResidentNs)
	}

	results := mustEvaluate(t, cur, next)
	for _, r := range results {
		if r.verdict == "FAIL" {
			t.Errorf("run fails the baseline written from it: %s", r)
		}
	}
}

package serve

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenView is a fully deterministic metricsView: every field pinned by
// hand so the rendering is byte-stable. Any rename of a metric family,
// label, or help string shows up as a golden diff — which is the point.
func goldenView() metricsView {
	phases := NewHistSet()
	phases.Observe("monge.MulPar", 0.0004)
	phases.Observe("monge.MulPar", 0.002)
	phases.Observe("hufpar.spine", 0.15)
	phases.Observe("hufpar.spine", 25) // overflows the last bucket
	batches := NewHistSet()
	batches.Observe("huffman", 0.003)
	batches.Observe("obst", 0.9)
	backendLat := NewHistSet()
	backendLat.Observe("http://10.0.0.1:8080", 0.0008)
	backendLat.Observe("http://10.0.0.1:8080", 0.004)
	backendLat.Observe("http://10.0.0.2:8080", 0.0012)

	return metricsView{
		Stats: StatsSnapshot{
			UptimeS:  12.5,
			Inflight: 3,
			Capacity: 256,
			Shed:     7,
			Panics:   1,
			Requests: map[string]RequestCounters{
				"huffman": {OK: 100, Errors: 5, Timeouts: 2, Canceled: 1},
				"obst":    {OK: 40, Errors: 0, Timeouts: 0, Canceled: 0},
			},
			Cache:    CacheCounters{Size: 10, Capacity: 4096, Hits: 50, Misses: 60, Evictions: 2, Collapses: 4},
			FastPath: CacheCounters{Size: 8, Capacity: 4096, Hits: 30, Misses: 80, Evictions: 1},
			Batchers: map[string]BatcherCounters{
				"huffman": {Batches: 20, Jobs: 60, AvgBatch: 3, MaxBatch: 8, FullCuts: 5, LingerCuts: 14, DrainCuts: 1, Expired: 2, Aborted: 1, MaxBatchConf: 64, LingerUS: 200},
				"obst":    {Batches: 4, Jobs: 4, AvgBatch: 1, MaxBatch: 1, LingerCuts: 4, MaxBatchConf: 64, LingerUS: 200},
			},
			PRAM: map[string]engineStatsJSON{
				"huffman": {Steps: 1234, Work: 56789, SpanMS: 40, BarrierMS: 5},
				"obst":    {Steps: 50, Work: 800, SpanMS: 9},
			},
			Pool: PoolCounters{
				Shards:     2,
				GlobalFree: 6,
				PerShard: []PoolShardCounters{
					{Gets: 100, Hits: 90, Puts: 95, Discards: 5, Free: 4},
					{Gets: 80, Hits: 60, Puts: 70, Discards: 10, Free: 2},
				},
			},
			Tuning: TuningInfo{
				Hash:         "0123456789ab",
				Source:       "calibrated",
				Stale:        true,
				CalibratedAt: "2026-01-02T03:04:05Z",
			},
		},
		PhaseHists: phases.Snapshot(),
		BatchHists: batches.Snapshot(),
		Cluster: &ClusterView{
			UptimeS:      42.25,
			RingBackends: 2,
			RingPoints:   256,
			HedgeDelayS:  0.0035,
			ProxiedOK:    500,
			ProxiedErr:   3,
			NoBackend:    1,
			HedgesFired:  12,
			HedgeWins:    5,
			Failovers:    2,
			BleedReplays: 40,
			Backends: []ClusterBackendView{
				{Name: "http://10.0.0.1:8080", ShardID: "a", Healthy: true, Breaker: "closed", Routed: 300, Hedged: 4},
				{Name: "http://10.0.0.2:8080", ShardID: "b", Healthy: false, Draining: true, Breaker: "open", BreakerOpens: 2, Routed: 200, Errors: 3, Hedged: 8},
			},
			Latency: backendLat.Snapshot(),
		},
	}
}

// TestMetricszGolden freezes the Prometheus rendering: names, labels,
// HELP/TYPE lines, sample ordering, and number formatting. Regenerate
// with `go test ./internal/serve -run Golden -update` after an
// intentional change.
func TestMetricszGolden(t *testing.T) {
	var buf bytes.Buffer
	renderMetrics(&buf, goldenView())

	path := filepath.Join("testdata", "metricsz.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("metrics rendering drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm is a minimal Prometheus text-format scanner: enough to
// round-trip our own exposition and catch malformed lines, unknown
// families, and TYPE/sample mismatches. It is deliberately strict —
// every sample must belong to a declared family.
func parseProm(t *testing.T, text string) (types map[string]string, samples []promSample) {
	t.Helper()
	types = make(map[string]string)
	help := make(map[string]bool)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			help[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if parts[1] != "counter" && parts[1] != "gauge" && parts[1] != "histogram" {
				t.Fatalf("line %d: unknown type %q", ln+1, parts[1])
			}
			if !help[parts[0]] {
				t.Fatalf("line %d: TYPE for %q without preceding HELP", ln+1, parts[0])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		s := promSample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			s.name = rest[:i]
			j := strings.IndexByte(rest, '}')
			if j < i {
				t.Fatalf("line %d: unbalanced braces: %q", ln+1, line)
			}
			for _, pair := range strings.Split(rest[i+1:j], ",") {
				kv := strings.SplitN(pair, "=", 2)
				if len(kv) != 2 {
					t.Fatalf("line %d: malformed label %q", ln+1, pair)
				}
				v, err := strconv.Unquote(kv[1])
				if err != nil {
					t.Fatalf("line %d: label value %q not quoted: %v", ln+1, kv[1], err)
				}
				s.labels[kv[0]] = v
			}
			rest = strings.TrimSpace(rest[j+1:])
		} else {
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed sample %q", ln+1, line)
			}
			s.name, rest = fields[0], fields[1]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("line %d: value in %q does not parse: %v", ln+1, line, err)
		}
		s.value = v

		family := s.name
		if types[family] == "" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(s.name, suf) && types[strings.TrimSuffix(s.name, suf)] == "histogram" {
					family = strings.TrimSuffix(s.name, suf)
					break
				}
			}
		}
		if types[family] == "" {
			t.Fatalf("line %d: sample %q has no declared family", ln+1, s.name)
		}
		samples = append(samples, s)
	}
	return types, samples
}

// TestMetricszParseRoundTrip renders the deterministic view, parses it
// back with the scanner, and cross-checks values and histogram
// invariants against the source data.
func TestMetricszParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	view := goldenView()
	renderMetrics(&buf, view)
	types, samples := parseProm(t, buf.String())

	byName := func(name string, match map[string]string) []promSample {
		var out []promSample
	next:
		for _, s := range samples {
			if s.name != name {
				continue
			}
			for k, v := range match {
				if s.labels[k] != v {
					continue next
				}
			}
			out = append(out, s)
		}
		return out
	}

	// Scalars and labeled counters survive the round trip.
	if got := byName("partree_uptime_seconds", nil); len(got) != 1 || got[0].value != 12.5 {
		t.Errorf("uptime: %+v", got)
	}
	if got := byName("partree_requests_total", map[string]string{"engine": "huffman", "result": "ok"}); len(got) != 1 || got[0].value != 100 {
		t.Errorf("huffman ok: %+v", got)
	}
	if got := byName("partree_cache_hits_total", map[string]string{"cache": "raw"}); len(got) != 1 || got[0].value != 30 {
		t.Errorf("raw cache hits: %+v", got)
	}
	if got := byName("partree_pool_gets_total", map[string]string{"shard": "1"}); len(got) != 1 || got[0].value != 80 {
		t.Errorf("pool shard 1 gets: %+v", got)
	}

	// Histogram invariants: buckets cumulative and non-decreasing, +Inf
	// bucket equals _count, _sum matches the observed values.
	for name, typ := range types {
		if typ != "histogram" {
			continue
		}
		labelKey := "phase"
		switch name {
		case "partree_batch_exec_seconds":
			labelKey = "engine"
		case "partree_cluster_backend_latency_seconds":
			labelKey = "backend"
		}
		labelVals := map[string]bool{}
		for _, s := range byName(name+"_bucket", nil) {
			labelVals[s.labels[labelKey]] = true
		}
		if len(labelVals) == 0 {
			t.Errorf("%s: no bucket samples", name)
		}
		for lv := range labelVals {
			sel := map[string]string{labelKey: lv}
			buckets := byName(name+"_bucket", sel)
			if len(buckets) != len(durationBuckets)+1 {
				t.Errorf("%s{%s}: %d buckets, want %d", name, lv, len(buckets), len(durationBuckets)+1)
			}
			prev, bounds := -1.0, -1.0
			var inf float64
			for _, b := range buckets {
				le := b.labels["le"]
				var bound float64
				if le == "+Inf" {
					bound = inf
					inf = b.value
					bound = 1e300
				} else {
					var err error
					bound, err = strconv.ParseFloat(le, 64)
					if err != nil {
						t.Fatalf("%s{%s}: le=%q: %v", name, lv, le, err)
					}
				}
				if bound <= bounds {
					t.Errorf("%s{%s}: le bounds not increasing", name, lv)
				}
				bounds = bound
				if b.value < prev {
					t.Errorf("%s{%s}: bucket counts not cumulative: %v after %v", name, lv, b.value, prev)
				}
				prev = b.value
			}
			count := byName(name+"_count", sel)
			if len(count) != 1 || count[0].value != inf {
				t.Errorf("%s{%s}: _count %v != +Inf bucket %v", name, lv, count, inf)
			}
			if sum := byName(name+"_sum", sel); len(sum) != 1 {
				t.Errorf("%s{%s}: missing _sum", name, lv)
			}
		}
	}

	// Spot-check one histogram's numbers against the source observations.
	spine := byName("partree_phase_duration_seconds_sum", map[string]string{"phase": "hufpar.spine"})
	if len(spine) != 1 || spine[0].value != 25.15 {
		t.Errorf("hufpar.spine sum: %+v, want 25.15", spine)
	}
}

// TestMetricszEndpoint drives the live endpoint after real traffic: the
// exposition parses, and the request/batch counters reflect the traffic.
func TestMetricszEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 8, Linger: time.Millisecond})
	for i := 0; i < 3; i++ {
		status, raw, _ := post(t, ts.Client(), ts.URL+"/v1/huffman", codingRequest{Weights: []float64{5, 2, 9, 1}})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	types, samples := parseProm(t, buf.String())
	if types["partree_requests_total"] != "counter" || types["partree_phase_duration_seconds"] != "histogram" {
		t.Fatalf("missing families in live exposition: %v", types)
	}
	var ok, batches float64
	var phaseBuckets int
	for _, s := range samples {
		switch {
		case s.name == "partree_requests_total" && s.labels["engine"] == "huffman" && s.labels["result"] == "ok":
			ok = s.value
		case s.name == "partree_batches_total" && s.labels["engine"] == "huffman":
			batches = s.value
		case s.name == "partree_phase_duration_seconds_bucket":
			phaseBuckets++
		}
	}
	if ok != 3 {
		t.Errorf("requests_total ok = %v, want 3", ok)
	}
	if batches < 1 {
		t.Errorf("batches_total = %v, want ≥ 1", batches)
	}
	if phaseBuckets == 0 {
		t.Error("no phase-duration histogram samples after batch traffic")
	}
}

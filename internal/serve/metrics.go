package serve

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"partree/internal/trace"
)

// /metricsz: the Prometheus text-format view of the server's counters.
// Everything /statsz reports — request outcomes, cache and batcher
// traffic, accumulated PRAM cost, the workspace arena — plus the
// trace-derived histograms: every batch run is traced (a bounded
// per-batch recorder, independent of client-requested request traces),
// and its phase spans and batch-exec wall times feed fixed-bucket
// histograms here. Metric names and label sets are frozen by a
// golden-output test; renames fail loudly.

// durationBuckets are the histogram bounds (seconds) shared by the
// phase-duration and batch-exec histograms: log-spaced from 10µs to 10s,
// which brackets everything from a one-job linger cut to a worst-case
// OBST batch.
var durationBuckets = [...]float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// histogram is one fixed-bucket duration histogram. Counts are
// per-bucket (not cumulative); bucket i counts observations ≤
// durationBuckets[i], the last slot counts the overflow (+Inf).
type histogram struct {
	counts [len(durationBuckets) + 1]int64
	sum    float64
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(durationBuckets[:], seconds)
	h.counts[i]++
	h.sum += seconds
}

// HistSnapshot is one histogram with its label value, ready to render.
// Exported so the cluster gateway can feed per-backend latency
// histograms into the same exposition machinery.
type HistSnapshot struct {
	Label  string
	Counts [len(durationBuckets) + 1]int64
	Sum    float64
}

// HistSet is a label → histogram map sharing the service-wide duration
// buckets; serve keeps one for phase durations (label = phase name) and
// one for batch executions (label = engine), and the cluster gateway
// keeps one for per-backend request latency (label = backend).
type HistSet struct {
	mu sync.Mutex
	m  map[string]*histogram
}

// NewHistSet returns an empty histogram set.
func NewHistSet() *HistSet { return &HistSet{m: make(map[string]*histogram)} }

// Observe folds one duration (in seconds) into the labeled histogram.
func (s *HistSet) Observe(label string, seconds float64) {
	s.mu.Lock()
	h, ok := s.m[label]
	if !ok {
		h = &histogram{}
		s.m[label] = h
	}
	h.observe(seconds)
	s.mu.Unlock()
}

// Snapshot returns the set's histograms sorted by label.
func (s *HistSet) Snapshot() []HistSnapshot {
	s.mu.Lock()
	out := make([]HistSnapshot, 0, len(s.m))
	for label, h := range s.m {
		out = append(out, HistSnapshot{Label: label, Counts: h.counts, Sum: h.sum})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// observeTrace folds one batch run's spans into the histograms: phase
// spans into the per-phase set, the batch span into the per-engine exec
// set. Installed as each batcher's observe hook.
func (s *Server) observeTrace(tr *trace.Trace) {
	for _, sp := range tr.Spans() {
		switch sp.Cat {
		case trace.CatPhase:
			s.phaseHist.Observe(sp.Name, sp.Dur.Seconds())
		case trace.CatBatch:
			s.batchHist.Observe(sp.Name, sp.Dur.Seconds())
		}
	}
}

// metricsView is everything renderMetrics needs, decoupled from the live
// Server so the golden test can render a hand-built view byte-for-byte.
// Cluster is nil on a plain partreed backend; the gateway renders the
// partree_cluster_* families through the same writer.
type metricsView struct {
	Stats      StatsSnapshot
	PhaseHists []HistSnapshot
	BatchHists []HistSnapshot
	Cluster    *ClusterView
}

// ClusterBackendView is one backend's routing/health state in the
// gateway's /metricsz and /statsz expositions.
type ClusterBackendView struct {
	Name         string `json:"name"`
	ShardID      string `json:"shard_id,omitempty"`
	Healthy      bool   `json:"healthy"`
	Draining     bool   `json:"draining"`
	Breaker      string `json:"breaker"` // "closed", "half-open", or "open"
	BreakerOpens int64  `json:"breaker_opens"`
	Routed       int64  `json:"routed"`
	Errors       int64  `json:"errors"`
	Hedged       int64  `json:"hedged"`
}

// ClusterView is the gateway-side slice of the exposition: ring shape,
// hedge/failover/bleed counters, per-backend routing state, and
// per-backend latency histograms. Rendered by RenderClusterMetrics (and
// by renderMetrics when a view carries one, which freezes the family
// names in the golden).
type ClusterView struct {
	UptimeS      float64              `json:"uptime_s"`
	RingBackends int                  `json:"ring_backends"`
	RingPoints   int                  `json:"ring_points"`
	HedgeDelayS  float64              `json:"hedge_delay_s"`
	ProxiedOK    int64                `json:"proxied_ok"`
	ProxiedErr   int64                `json:"proxied_errors"`
	NoBackend    int64                `json:"no_backend"`
	HedgesFired  int64                `json:"hedges_fired"`
	HedgeWins    int64                `json:"hedge_wins"`
	Failovers    int64                `json:"failovers"`
	BleedReplays int64                `json:"bleed_replays"`
	Backends     []ClusterBackendView `json:"backends"`
	Latency      []HistSnapshot       `json:"-"`
}

// breakerGaugeValue maps breaker state names onto a stable numeric
// encoding for the partree_cluster_breaker_state gauge.
func breakerGaugeValue(state string) float64 {
	switch state {
	case "half-open":
		return 1
	case "open":
		return 2
	default: // closed
		return 0
	}
}

// renderClusterMetrics writes the partree_cluster_* families. Family
// names and label sets are frozen by the same golden as the rest of the
// exposition.
func renderClusterMetrics(p promWriter, v *ClusterView) {
	p.header("partree_cluster_uptime_seconds", "Seconds since the gateway started.", "gauge")
	p.sample("partree_cluster_uptime_seconds", "", v.UptimeS)
	p.header("partree_cluster_ring_backends", "Backends currently on the consistent-hash ring.", "gauge")
	p.sample("partree_cluster_ring_backends", "", float64(v.RingBackends))
	p.header("partree_cluster_ring_points", "Virtual nodes currently on the ring.", "gauge")
	p.sample("partree_cluster_ring_points", "", float64(v.RingPoints))
	p.header("partree_cluster_hedge_delay_seconds", "Current adaptive hedge delay (clamped p95 of proxied latency).", "gauge")
	p.sample("partree_cluster_hedge_delay_seconds", "", v.HedgeDelayS)

	p.header("partree_cluster_proxied_total", "Proxied /v1 requests by outcome.", "counter")
	p.sample("partree_cluster_proxied_total", `outcome="ok"`, float64(v.ProxiedOK))
	p.sample("partree_cluster_proxied_total", `outcome="error"`, float64(v.ProxiedErr))
	p.sample("partree_cluster_proxied_total", `outcome="no_backend"`, float64(v.NoBackend))
	p.header("partree_cluster_hedges_total", "Hedged duplicates fired and hedges that won the race.", "counter")
	p.sample("partree_cluster_hedges_total", `event="fired"`, float64(v.HedgesFired))
	p.sample("partree_cluster_hedges_total", `event="won"`, float64(v.HedgeWins))
	p.header("partree_cluster_failovers_total", "Failover retries to the secondary replica after connection errors.", "counter")
	p.sample("partree_cluster_failovers_total", "", float64(v.Failovers))
	p.header("partree_cluster_bleed_replays_total", "Requests replayed to a drained shard's ring successor.", "counter")
	p.sample("partree_cluster_bleed_replays_total", "", float64(v.BleedReplays))

	p.header("partree_cluster_backend_up", "Backend health-probe status (1 = healthy).", "gauge")
	for _, b := range v.Backends {
		up := 0.0
		if b.Healthy {
			up = 1
		}
		p.sample("partree_cluster_backend_up", fmt.Sprintf(`backend=%q`, b.Name), up)
	}
	p.header("partree_cluster_backend_draining", "Whether the backend is draining off the ring (1 = draining).", "gauge")
	for _, b := range v.Backends {
		d := 0.0
		if b.Draining {
			d = 1
		}
		p.sample("partree_cluster_backend_draining", fmt.Sprintf(`backend=%q`, b.Name), d)
	}
	p.header("partree_cluster_breaker_state", "Circuit-breaker state per backend (0 = closed, 1 = half-open, 2 = open).", "gauge")
	for _, b := range v.Backends {
		p.sample("partree_cluster_breaker_state", fmt.Sprintf(`backend=%q`, b.Name), breakerGaugeValue(b.Breaker))
	}
	p.header("partree_cluster_breaker_opens_total", "Circuit-breaker transitions to open per backend.", "counter")
	for _, b := range v.Backends {
		p.sample("partree_cluster_breaker_opens_total", fmt.Sprintf(`backend=%q`, b.Name), float64(b.BreakerOpens))
	}
	p.header("partree_cluster_backend_requests_total", "Requests routed to the backend (primary or hedge).", "counter")
	for _, b := range v.Backends {
		p.sample("partree_cluster_backend_requests_total", fmt.Sprintf(`backend=%q`, b.Name), float64(b.Routed))
	}
	p.header("partree_cluster_backend_errors_total", "Transport-level failures per backend.", "counter")
	for _, b := range v.Backends {
		p.sample("partree_cluster_backend_errors_total", fmt.Sprintf(`backend=%q`, b.Name), float64(b.Errors))
	}
	p.header("partree_cluster_backend_hedges_total", "Hedged duplicates sent to the backend.", "counter")
	for _, b := range v.Backends {
		p.sample("partree_cluster_backend_hedges_total", fmt.Sprintf(`backend=%q`, b.Name), float64(b.Hedged))
	}
	p.header("partree_cluster_backend_latency_seconds", "Proxied request latency, by backend.", "histogram")
	p.hist("partree_cluster_backend_latency_seconds", "backend", v.Latency)
}

// RenderClusterMetrics writes only the partree_cluster_* families — the
// gateway's /metricsz. The buckets and text format are shared with the
// backend exposition so one scrape config covers both tiers.
func RenderClusterMetrics(w io.Writer, v *ClusterView) {
	renderClusterMetrics(promWriter{w}, v)
}

// promWriter renders Prometheus text format (version 0.0.4) with
// deterministic ordering: families in code order, series sorted by
// label value.
type promWriter struct{ w io.Writer }

func (p promWriter) header(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (p promWriter) sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(p.w, "%s%s %s\n", name, labels, fnum(v))
}

func (p promWriter) hist(name string, labelKey string, hs []HistSnapshot) {
	for _, h := range hs {
		cum := int64(0)
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(durationBuckets) {
				le = fnum(durationBuckets[i])
			}
			p.sample(name+"_bucket", fmt.Sprintf(`%s=%q,le=%q`, labelKey, h.Label, le), float64(cum))
		}
		p.sample(name+"_sum", fmt.Sprintf(`%s=%q`, labelKey, h.Label), h.Sum)
		p.sample(name+"_count", fmt.Sprintf(`%s=%q`, labelKey, h.Label), float64(cum))
	}
}

// renderMetrics writes the full exposition. Families, names and label
// sets are frozen by TestMetricszGolden; add new families freely, but a
// rename must update the golden file (that is the point).
func renderMetrics(w io.Writer, v metricsView) {
	p := promWriter{w}
	snap := v.Stats

	p.header("partree_uptime_seconds", "Seconds since the server started.", "gauge")
	p.sample("partree_uptime_seconds", "", snap.UptimeS)

	p.header("partree_inflight_requests", "Currently admitted /v1 requests.", "gauge")
	p.sample("partree_inflight_requests", "", float64(snap.Inflight))
	p.header("partree_inflight_capacity", "Admission limiter capacity.", "gauge")
	p.sample("partree_inflight_capacity", "", float64(snap.Capacity))

	p.header("partree_shed_total", "Requests shed with 429 by the admission limiter.", "counter")
	p.sample("partree_shed_total", "", float64(snap.Shed))
	p.header("partree_panics_total", "Handler panics converted to 500s.", "counter")
	p.sample("partree_panics_total", "", float64(snap.Panics))

	engines := make([]string, 0, len(snap.Requests))
	for name := range snap.Requests {
		engines = append(engines, name)
	}
	sort.Strings(engines)

	p.header("partree_requests_total", "Requests by engine and outcome (timeout and canceled are subsets of error).", "counter")
	for _, e := range engines {
		r := snap.Requests[e]
		for _, res := range []struct {
			label string
			v     int64
		}{{"ok", r.OK}, {"error", r.Errors}, {"timeout", r.Timeouts}, {"canceled", r.Canceled}} {
			p.sample("partree_requests_total", fmt.Sprintf(`engine=%q,result=%q`, e, res.label), float64(res.v))
		}
	}

	p.header("partree_cache_size", "Entries currently cached.", "gauge")
	p.sample("partree_cache_size", `cache="result"`, float64(snap.Cache.Size))
	p.sample("partree_cache_size", `cache="raw"`, float64(snap.FastPath.Size))
	p.header("partree_cache_capacity", "Cache capacity in entries.", "gauge")
	p.sample("partree_cache_capacity", `cache="result"`, float64(snap.Cache.Capacity))
	p.sample("partree_cache_capacity", `cache="raw"`, float64(snap.FastPath.Capacity))
	p.header("partree_cache_hits_total", "Cache hits.", "counter")
	p.sample("partree_cache_hits_total", `cache="result"`, float64(snap.Cache.Hits))
	p.sample("partree_cache_hits_total", `cache="raw"`, float64(snap.FastPath.Hits))
	p.header("partree_cache_misses_total", "Cache misses.", "counter")
	p.sample("partree_cache_misses_total", `cache="result"`, float64(snap.Cache.Misses))
	p.sample("partree_cache_misses_total", `cache="raw"`, float64(snap.FastPath.Misses))
	p.header("partree_cache_evictions_total", "Cache evictions.", "counter")
	p.sample("partree_cache_evictions_total", `cache="result"`, float64(snap.Cache.Evictions))
	p.sample("partree_cache_evictions_total", `cache="raw"`, float64(snap.FastPath.Evictions))
	p.header("partree_cache_singleflight_collapses_total", "Callers that waited on another caller's in-flight computation.", "counter")
	p.sample("partree_cache_singleflight_collapses_total", `cache="result"`, float64(snap.Cache.Collapses))

	batchers := make([]string, 0, len(snap.Batchers))
	for name := range snap.Batchers {
		batchers = append(batchers, name)
	}
	sort.Strings(batchers)
	p.header("partree_batches_total", "Batches executed per engine.", "counter")
	for _, e := range batchers {
		p.sample("partree_batches_total", fmt.Sprintf(`engine=%q`, e), float64(snap.Batchers[e].Batches))
	}
	p.header("partree_batch_jobs_total", "Jobs batched per engine.", "counter")
	for _, e := range batchers {
		p.sample("partree_batch_jobs_total", fmt.Sprintf(`engine=%q`, e), float64(snap.Batchers[e].Jobs))
	}
	p.header("partree_batch_cuts_total", "Batch cuts by reason.", "counter")
	for _, e := range batchers {
		b := snap.Batchers[e]
		p.sample("partree_batch_cuts_total", fmt.Sprintf(`cut="drain",engine=%q`, e), float64(b.DrainCuts))
		p.sample("partree_batch_cuts_total", fmt.Sprintf(`cut="full",engine=%q`, e), float64(b.FullCuts))
		p.sample("partree_batch_cuts_total", fmt.Sprintf(`cut="linger",engine=%q`, e), float64(b.LingerCuts))
	}
	p.header("partree_batch_expired_jobs_total", "Jobs expired before execution (submitter deadline passed in queue).", "counter")
	for _, e := range batchers {
		p.sample("partree_batch_expired_jobs_total", fmt.Sprintf(`engine=%q`, e), float64(snap.Batchers[e].Expired))
	}
	p.header("partree_batch_aborted_jobs_total", "Jobs lost to aborted batch runs.", "counter")
	for _, e := range batchers {
		p.sample("partree_batch_aborted_jobs_total", fmt.Sprintf(`engine=%q`, e), float64(snap.Batchers[e].Aborted))
	}
	p.header("partree_batch_max_jobs_seen", "Largest batch executed so far.", "gauge")
	for _, e := range batchers {
		p.sample("partree_batch_max_jobs_seen", fmt.Sprintf(`engine=%q`, e), float64(snap.Batchers[e].MaxBatch))
	}

	prams := make([]string, 0, len(snap.PRAM))
	for name := range snap.PRAM {
		prams = append(prams, name)
	}
	sort.Strings(prams)
	p.header("partree_pram_steps_total", "Counted PRAM steps accumulated per engine.", "counter")
	for _, e := range prams {
		p.sample("partree_pram_steps_total", fmt.Sprintf(`engine=%q`, e), float64(snap.PRAM[e].Steps))
	}
	p.header("partree_pram_work_total", "Counted PRAM work accumulated per engine.", "counter")
	for _, e := range prams {
		p.sample("partree_pram_work_total", fmt.Sprintf(`engine=%q`, e), float64(snap.PRAM[e].Work))
	}
	p.header("partree_pram_span_seconds_total", "Measured critical-path estimate per engine.", "counter")
	for _, e := range prams {
		p.sample("partree_pram_span_seconds_total", fmt.Sprintf(`engine=%q`, e), snap.PRAM[e].SpanMS/1e3)
	}
	p.header("partree_pram_barrier_wait_seconds_total", "Worker idle time at statement barriers per engine.", "counter")
	for _, e := range prams {
		p.sample("partree_pram_barrier_wait_seconds_total", fmt.Sprintf(`engine=%q`, e), snap.PRAM[e].BarrierMS/1e3)
	}

	p.header("partree_pool_shards", "Workspace arena shard count.", "gauge")
	p.sample("partree_pool_shards", "", float64(snap.Pool.Shards))
	p.header("partree_pool_free_slabs", "Free slabs available across all shards.", "gauge")
	p.sample("partree_pool_free_slabs", "", float64(snap.Pool.GlobalFree))
	p.header("partree_pool_gets_total", "Arena gets per shard.", "counter")
	for i, sh := range snap.Pool.PerShard {
		p.sample("partree_pool_gets_total", fmt.Sprintf(`shard="%d"`, i), float64(sh.Gets))
	}
	p.header("partree_pool_hits_total", "Arena free-list hits per shard.", "counter")
	for i, sh := range snap.Pool.PerShard {
		p.sample("partree_pool_hits_total", fmt.Sprintf(`shard="%d"`, i), float64(sh.Hits))
	}
	p.header("partree_pool_puts_total", "Arena puts per shard.", "counter")
	for i, sh := range snap.Pool.PerShard {
		p.sample("partree_pool_puts_total", fmt.Sprintf(`shard="%d"`, i), float64(sh.Puts))
	}
	p.header("partree_pool_discards_total", "Arena discards per shard (slab outside a size class or list full).", "counter")
	for i, sh := range snap.Pool.PerShard {
		p.sample("partree_pool_discards_total", fmt.Sprintf(`shard="%d"`, i), float64(sh.Discards))
	}

	p.header("partree_tune_info", "Active tuning profile identity (value is always 1; identity lives in the labels).", "gauge")
	p.sample("partree_tune_info", fmt.Sprintf(`hash=%q,source=%q`, snap.Tuning.Hash, snap.Tuning.Source), 1)
	p.header("partree_tune_stale", "Whether the active tuning profile was calibrated on a different machine shape (1 = stale).", "gauge")
	stale := 0.0
	if snap.Tuning.Stale {
		stale = 1
	}
	p.sample("partree_tune_stale", "", stale)

	p.header("partree_draining", "Whether the server is draining (healthz returns 503).", "gauge")
	draining := 0.0
	if snap.Draining {
		draining = 1
	}
	p.sample("partree_draining", "", draining)

	p.header("partree_phase_duration_seconds", "Wall time of traced PRAM phases, by phase label.", "histogram")
	p.hist("partree_phase_duration_seconds", "phase", v.PhaseHists)
	p.header("partree_batch_exec_seconds", "Wall time of batch executions, by engine.", "histogram")
	p.hist("partree_batch_exec_seconds", "engine", v.BatchHists)

	if v.Cluster != nil {
		renderClusterMetrics(p, v.Cluster)
	}
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	view := metricsView{
		Stats:      s.Snapshot(),
		PhaseHists: s.phaseHist.Snapshot(),
		BatchHists: s.batchHist.Snapshot(),
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	renderMetrics(w, view)
}

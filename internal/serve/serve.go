// Package serve implements partreed, the batched tree-construction
// service: an HTTP JSON façade over the partree engines that coalesces
// concurrently arriving small jobs into one simulated-PRAM machine run
// per engine (the partree *Batch entry points), caches rendered
// responses in one LRU reached by raw-body and canonical keys, collapses
// identical in-flight computations, and sheds load when its admission
// queue is full.
//
// Request path, outermost first:
//
//	recover → admission limiter (429 + Retry-After when full) →
//	read body → raw-key lookup (hit: write the stored bytes) →
//	per-request deadline → decode/validate (structured 400) →
//	canonical-key lookup (single-flight) → batcher (one PRAM run per
//	batch) → render + encode → write, store under the raw key
//
// /healthz bypasses the limiter so the server stays observable under
// saturation; /statsz reports the per-phase PRAM PhaseStats alongside
// cache, batcher, and shedding counters.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"partree"
	"partree/internal/engine"
	"partree/internal/pool"
	"partree/internal/trace"
	"partree/internal/tune"
)

// Config parameterizes a Server. The zero value gets sensible defaults
// from setDefaults.
type Config struct {
	// Workers is the PRAM worker count per batch run (0 = GOMAXPROCS).
	Workers int
	// MaxBatch is the largest number of jobs one machine run executes.
	MaxBatch int
	// Linger is how long an open batch waits for company after its first
	// job before it is cut. 0 dispatches immediately with whatever has
	// already queued.
	Linger time.Duration
	// CacheSize sizes the response cache, which holds up to 2×CacheSize
	// rendered bodies counting raw-body and canonical keys together (one
	// of each per distinct request); 0 means the default (4096), negative
	// disables caching entirely.
	CacheSize int
	// MaxInflight bounds concurrently admitted /v1 requests; excess
	// requests are shed with 429 + Retry-After.
	MaxInflight int
	// RequestTimeout is the per-request context deadline.
	RequestTimeout time.Duration
	// Limits bounds request payloads (see Limits).
	Limits Limits
	// TraceCapacity bounds each per-request trace ring (spans kept per
	// traced request; 0 means 512). Batch-run traces always use the
	// trace package default.
	TraceCapacity int
	// ShardID names this backend within a cluster (partreed -shard-id).
	// Purely informational: echoed in /healthz and /statsz so a gateway
	// probe can tell which shard answered.
	ShardID string
	// Logf receives server diagnostics (panics, shutdown). nil = log.Printf.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.TraceCapacity == 0 {
		c.TraceCapacity = 512
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	c.Limits.setDefaults()
}

// deadlineHeader lets a client tighten its own request deadline below
// the server-wide RequestTimeout (milliseconds; larger values clamp).
const deadlineHeader = "X-Partree-Deadline-Ms"

// traceHeader ("X-Partree-Trace: 1") opts a request into tracing: the
// server attaches a fresh recorder to the request context, echoes its ID
// in traceIDHeader, and returns the span timings — the request span, the
// batch run's span, and the PRAM phase spans of the run that computed
// the result — in the response envelope (see finishTraced).
const (
	traceHeader   = "X-Partree-Trace"
	traceIDHeader = "X-Partree-Trace-Id"
)

// Server is the partreed HTTP service. Construct with New; always Close
// to drain in-flight batches.
type Server struct {
	cfg   Config
	start time.Time
	mux   *http.ServeMux
	cache *responseCache // nil when disabled

	inflight chan struct{}
	shed     atomic.Int64
	panics   atomic.Int64
	draining atomic.Bool

	// Per-engine state, keyed by engine name (see engineTable).
	served   map[string]*endpointCounters
	batchers map[string]engineBatcher

	statsMu     sync.Mutex
	engineStats map[string]*accumulatedStats

	// Trace-derived histograms behind /metricsz, fed by every batch run's
	// recorder via observeTrace (see metrics.go).
	phaseHist *HistSet
	batchHist *HistSet
}

type endpointCounters struct {
	OK     atomic.Int64
	Errors atomic.Int64
	// Timeouts and Canceled split out the deadline/cancellation slice of
	// Errors: requests that died of their deadline (504) versus clients
	// that hung up mid-request.
	Timeouts atomic.Int64
	Canceled atomic.Int64
}

// RequestCounters is one engine's request-outcome tally in the /statsz
// and /metricsz payloads. Invariant: Timeouts+Canceled ≤ Errors.
type RequestCounters struct {
	OK       int64 `json:"ok"`
	Errors   int64 `json:"errors"`
	Timeouts int64 `json:"timeouts"`
	Canceled int64 `json:"canceled"`
}

// snapshot reads the counters in an order that keeps the snapshot's
// invariant under concurrent traffic: finish increments Errors before
// the Timeouts/Canceled breakdown, so the subsets must be read BEFORE
// the total — any breakdown increment we observe then has its Errors
// increment visible too. Reading in field order (the old code) could
// report timeouts+canceled > errors mid-request.
func (c *endpointCounters) snapshot() RequestCounters {
	timeouts := c.Timeouts.Load()
	canceled := c.Canceled.Load()
	return RequestCounters{
		Timeouts: timeouts,
		Canceled: canceled,
		Errors:   c.Errors.Load(),
		OK:       c.OK.Load(),
	}
}

// accumulatedStats folds the partree.Stats of successive batch runs.
type accumulatedStats struct {
	steps, work   int64
	span, barrier time.Duration
	phases        map[string]partree.PhaseStats
}

// New builds a Server and starts its per-engine batch collectors.
func New(cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{
		cfg:         cfg,
		start:       time.Now(),
		mux:         http.NewServeMux(),
		inflight:    make(chan struct{}, cfg.MaxInflight),
		served:      make(map[string]*endpointCounters, len(engineTable)),
		batchers:    make(map[string]engineBatcher, len(engineTable)),
		engineStats: make(map[string]*accumulatedStats, len(engineTable)),
		phaseHist:   NewHistSet(),
		batchHist:   NewHistSet(),
	}
	if cfg.CacheSize > 0 {
		s.cache = newResponseCache(2 * cfg.CacheSize)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	// engine.GrainBatch (one job per chunk) spreads the (typically few,
	// serial-oracle) co-batched jobs across workers and checkpoints the
	// run at every job boundary, so an all-submitters-gone abort lands
	// within one job's work. All batchers share one Options shape, so
	// they draw from one facade machine-pool key: steady-state traffic
	// reuses resident machines and constructs nothing per batch. Every
	// batch run records into its own bounded trace (independent of
	// client-requested request traces), which feeds /metricsz.
	opts := partree.Options{Workers: cfg.Workers, Grain: engine.GrainBatch()}
	for _, e := range engineTable {
		name, path := e.route()
		s.served[name] = &endpointCounters{}
		s.engineStats[name] = &accumulatedStats{phases: make(map[string]partree.PhaseStats)}
		h, b := e.start(s, opts)
		s.batchers[name] = b
		s.mux.Handle(path, s.v1(name, h))
	}
	return s
}

// Handler returns the service's root handler (panic recovery included).
func (s *Server) Handler() http.Handler { return s.recoverer(s.mux) }

// BeginDrain flips /healthz to 503 so health-checked routers (the
// cluster gateway's probes, load balancers) stop sending new traffic,
// while everything already admitted keeps running: in-flight requests
// and queued batches finish normally. Call it at the top of the
// graceful-shutdown path, before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain (or Close) has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains every batcher: queued jobs execute, then collectors exit.
// In-flight HTTP requests should be drained first (http.Server.Shutdown);
// requests arriving afterwards get 503. The facade machine pool is
// drained last so the resident PRAM worker goroutines exit with the
// server instead of waiting out their idle timeout.
func (s *Server) Close() {
	s.draining.Store(true)
	var wg sync.WaitGroup
	for _, b := range s.batchers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Close()
		}()
	}
	wg.Wait()
	partree.DrainMachinePool()
}

func (s *Server) addStats(engine string, st partree.Stats) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	acc := s.engineStats[engine]
	acc.steps += st.Steps
	acc.work += st.Work
	acc.span += st.Span
	acc.barrier += st.BarrierWait
	for name, ps := range st.Phases {
		merged := acc.phases[name]
		merged.Steps += ps.Steps
		merged.Work += ps.Work
		merged.Calls += ps.Calls
		merged.Span += ps.Span
		merged.Busy += ps.Busy
		merged.BarrierWait += ps.BarrierWait
		acc.phases[name] = merged
	}
}

// --- middleware ---

// recoverer converts a handler panic into a structured 500 instead of
// killing the connection (and process) — the backstop behind strict
// request validation.
func (s *Server) recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				s.cfg.Logf("serve: panic handling %s: %v", r.URL.Path, v)
				writeError(w, &apiError{
					Status:  http.StatusInternalServerError,
					Code:    "internal",
					Message: "internal error",
				})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// v1 wraps an engine handler with the POST check, the admission limiter,
// the body read, the raw-key lookup, and the per-request deadline. The
// body is read once; a raw-key hit writes the stored bytes straight back,
// and a miss hands the bytes to the engine handler and stores the body it
// answered with under the raw key. The deadline is installed only on a
// miss, so hits — which do no blocking work — skip the context machinery
// entirely.
//
// A client may tighten (never extend) its own deadline with an
// X-Partree-Deadline-Ms header; values above the configured
// RequestTimeout are clamped to it.
//
// A request carrying "X-Partree-Trace: 1" gets a fresh trace recorder on
// its context (armed through the batcher into the PRAM run) and skips the
// raw key: traced responses carry per-request span timings, so a
// byte-identical replay would be a lie.
func (s *Server) v1(engine string, h engineHandler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, &apiError{Status: http.StatusMethodNotAllowed, Code: "method", Message: "POST required"})
			return
		}
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, &apiError{Status: http.StatusTooManyRequests, Code: "overloaded", Message: "admission queue full; retry"})
			return
		}
		buf := getBodyBuf()
		defer putBodyBuf(buf)
		if _, err := buf.ReadFrom(io.LimitReader(r.Body, s.cfg.Limits.MaxBodyBytes+1)); err != nil {
			s.served[engine].Errors.Add(1)
			writeError(w, badRequest("bad_body", "reading request body: %v", err))
			return
		}
		body := buf.Bytes()

		traced := r.Header.Get(traceHeader) == "1"
		var k rawKey
		if s.cache != nil && !traced {
			hs := getHasher()
			hs.Write([]byte(r.URL.Path))
			hs.Write([]byte{0})
			hs.Write(body)
			hs.Sum(k[:0])
			putHasher(hs)
			if out := s.cache.get(k); out != nil {
				s.served[engine].OK.Add(1)
				w.Header().Set("X-Partree-Cache", "hit")
				writeBody(w, http.StatusOK, out)
				return
			}
		}

		timeout := s.cfg.RequestTimeout
		if hdr := r.Header.Get(deadlineHeader); hdr != "" {
			// Compare in milliseconds: converting a huge header to a
			// Duration first would overflow into an expired deadline.
			if ms, err := strconv.ParseInt(hdr, 10, 64); err == nil && ms > 0 && ms < timeout.Milliseconds() {
				timeout = time.Duration(ms) * time.Millisecond
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		if traced {
			tr := trace.New(s.cfg.TraceCapacity)
			tr.SetID(trace.NewID())
			w.Header().Set(traceIDHeader, tr.ID())
			ctx = trace.NewContext(ctx, tr)
		}
		if out := h(w, r.WithContext(ctx), body); out != nil && !traced {
			s.cache.put(k, out)
		}
	})
}

// --- response plumbing ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	s := getEncoder()
	_ = s.enc.Encode(v)
	writeBody(w, status, s.buf.Bytes())
	putEncoder(s)
}

// writeBody writes an already rendered JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	hd := w.Header()
	hd.Set("Content-Type", "application/json")
	hd.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.Status, map[string]any{"error": e})
}

// finish maps the outcome of a cached batch computation onto the wire:
// engine/context errors to their statuses, a rendered body to 200 with a
// cache disposition header. A traced request (trace recorder on the
// context) gets the body embedded as "result" in an envelope carrying the
// span timings; the encoder's trailing newline is dropped there, so the
// field is byte-for-byte the untraced body's JSON value.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, engine string, body []byte, hit bool, err error) {
	counters := s.served[engine]
	if err != nil {
		counters.Errors.Add(1)
		var ae *apiError
		switch {
		case errors.As(err, &ae):
			writeError(w, ae)
		case errors.Is(err, context.DeadlineExceeded):
			counters.Timeouts.Add(1)
			writeError(w, &apiError{Status: http.StatusGatewayTimeout, Code: "timeout", Message: "request deadline exceeded"})
		case errors.Is(err, ErrShuttingDown):
			writeError(w, &apiError{Status: http.StatusServiceUnavailable, Code: "shutdown", Message: "server shutting down"})
		case errors.Is(err, context.Canceled):
			// Client went away; nothing useful to write, but keep the
			// status line coherent for intermediaries.
			counters.Canceled.Add(1)
			writeError(w, &apiError{Status: http.StatusServiceUnavailable, Code: "canceled", Message: "request canceled"})
		default:
			writeError(w, &apiError{Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()})
		}
		return
	}
	counters.OK.Add(1)
	disposition := "miss"
	if hit {
		disposition = "hit"
	}
	w.Header().Set("X-Partree-Cache", disposition)
	if tr := trace.FromContext(r.Context()); tr != nil {
		// Close the request span (whole handler wall time, cache
		// disposition) and return the trace in the envelope. The grafted
		// batch/phase spans are already in tr by the time Submit returned.
		tr.Add(trace.Span{Name: engine, Cat: trace.CatRequest, Dur: tr.Now(), Cut: disposition})
		result := json.RawMessage(bytes.TrimSuffix(body, []byte("\n")))
		writeJSON(w, http.StatusOK, &tracedResponse{Result: result, Trace: traceEnvelopeOf(tr)})
		return
	}
	writeBody(w, http.StatusOK, body)
}

// --- observability endpoints ---

// handleHealthz reports readiness: 200 while the server accepts work,
// 503 once BeginDrain has flipped it into its shutdown sequence. The
// flip is immediate — routers stop sending new traffic right away —
// while requests already admitted (and queued batches) still complete.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"ok":       true,
		"uptime_s": time.Since(s.start).Seconds(),
	}
	if s.cfg.ShardID != "" {
		body["shard_id"] = s.cfg.ShardID
	}
	if s.draining.Load() {
		body["ok"] = false
		body["draining"] = true
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// phaseJSON mirrors partree.PhaseStats with JSON-friendly durations.
type phaseJSON struct {
	Steps     int64   `json:"steps"`
	Work      int64   `json:"work"`
	Calls     int64   `json:"calls"`
	SpanMS    float64 `json:"span_ms"`
	BusyMS    float64 `json:"busy_ms"`
	BarrierMS float64 `json:"barrier_ms"`
}

type engineStatsJSON struct {
	Steps     int64                `json:"steps"`
	Work      int64                `json:"work"`
	SpanMS    float64              `json:"span_ms"`
	BarrierMS float64              `json:"barrier_ms"`
	Phases    map[string]phaseJSON `json:"phases,omitempty"`
}

// PoolShardCounters is one arena shard's traffic in the /statsz payload.
type PoolShardCounters struct {
	Gets     int64   `json:"gets"`
	Hits     int64   `json:"hits"`
	HitRate  float64 `json:"hit_rate"`
	Puts     int64   `json:"puts"`
	Discards int64   `json:"discards"`
	Free     int     `json:"free"`
}

// PoolCounters reports the sharded workspace arena: configuration plus
// per-shard traffic, so an operator can see whether the shard count
// matches the deployment (all traffic on one shard at -workers 1, spread
// otherwise) and how well each shard's free lists are hitting.
type PoolCounters struct {
	Shards     int                 `json:"shards"`
	GlobalFree int                 `json:"global_free"`
	PerShard   []PoolShardCounters `json:"per_shard"`
}

func poolCounters() PoolCounters {
	pc := PoolCounters{
		Shards:     pool.Shards(),
		GlobalFree: pool.GlobalFree(),
	}
	for _, sh := range pool.PerShard() {
		c := PoolShardCounters{
			Gets:     sh.Gets,
			Hits:     sh.Hits,
			Puts:     sh.Puts,
			Discards: sh.Discards,
			Free:     sh.Free,
		}
		if sh.Gets > 0 {
			c.HitRate = float64(sh.Hits) / float64(sh.Gets)
		}
		pc.PerShard = append(pc.PerShard, c)
	}
	return pc
}

// MachinePoolCounters reports the facade's machine reuse (see
// partree.MachinePoolStats): at steady state constructed stays flat
// while reused grows — every batch runs on a recycled resident machine.
type MachinePoolCounters struct {
	Constructed int64 `json:"constructed"`
	Reused      int64 `json:"reused"`
	Discarded   int64 `json:"discarded"`
}

// StatsSnapshot is the /statsz payload. Cache and FastPath are the
// response cache's canonical-key and raw-key counters.
type StatsSnapshot struct {
	UptimeS     float64                    `json:"uptime_s"`
	ShardID     string                     `json:"shard_id,omitempty"`
	Draining    bool                       `json:"draining"`
	Inflight    int                        `json:"inflight"`
	Capacity    int                        `json:"inflight_capacity"`
	Shed        int64                      `json:"shed"`
	Panics      int64                      `json:"panics"`
	Requests    map[string]RequestCounters `json:"requests"`
	Cache       CacheCounters              `json:"cache"`
	FastPath    CacheCounters              `json:"fastpath"`
	Batchers    map[string]BatcherCounters `json:"batchers"`
	PRAM        map[string]engineStatsJSON `json:"pram"`
	Pool        PoolCounters               `json:"pool"`
	MachinePool MachinePoolCounters        `json:"machine_pool"`
	Tuning      TuningInfo                 `json:"tuning"`
}

// TuningInfo identifies the tuning profile the process runs under: its
// content hash (see tune.Profile.Hash), provenance, and whether the
// profile was calibrated on a different machine shape than the one now
// serving (stale — still valid, but worth re-running -tune).
type TuningInfo struct {
	Hash         string `json:"hash"`
	Source       string `json:"source"`
	Stale        bool   `json:"stale"`
	CalibratedAt string `json:"calibrated_at,omitempty"`
}

// tuningInfo snapshots the active profile's identity.
func tuningInfo() TuningInfo {
	p := tune.Active()
	return TuningInfo{
		Hash:         p.Hash(),
		Source:       p.Source,
		Stale:        p.IsStale(),
		CalibratedAt: p.CreatedAt,
	}
}

// Snapshot assembles the current statistics (also served at /statsz).
func (s *Server) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		UptimeS:  time.Since(s.start).Seconds(),
		ShardID:  s.cfg.ShardID,
		Draining: s.draining.Load(),
		Inflight: len(s.inflight),
		Capacity: cap(s.inflight),
		Shed:     s.shed.Load(),
		Panics:   s.panics.Load(),
		Requests: make(map[string]RequestCounters, len(s.served)),
		Cache:    s.cache.counters(),
		FastPath: s.cache.rawCounters(),
		Batchers: make(map[string]BatcherCounters, len(s.batchers)),
		PRAM:     make(map[string]engineStatsJSON, len(s.engineStats)),
		Pool:     poolCounters(),
		Tuning:   tuningInfo(),
	}
	mp := partree.MachinePoolStats()
	snap.MachinePool = MachinePoolCounters{
		Constructed: mp.Constructed,
		Reused:      mp.Reused,
		Discarded:   mp.Discarded,
	}
	for name, c := range s.served {
		snap.Requests[name] = c.snapshot()
	}
	for name, b := range s.batchers {
		snap.Batchers[name] = b.counters()
	}
	s.statsMu.Lock()
	for name, acc := range s.engineStats {
		es := engineStatsJSON{
			Steps:     acc.steps,
			Work:      acc.work,
			SpanMS:    acc.span.Seconds() * 1e3,
			BarrierMS: acc.barrier.Seconds() * 1e3,
		}
		if len(acc.phases) > 0 {
			es.Phases = make(map[string]phaseJSON, len(acc.phases))
			for pn, ps := range acc.phases {
				es.Phases[pn] = phaseJSON{
					Steps:     ps.Steps,
					Work:      ps.Work,
					Calls:     ps.Calls,
					SpanMS:    ps.Span.Seconds() * 1e3,
					BusyMS:    ps.Busy.Seconds() * 1e3,
					BarrierMS: ps.BarrierWait.Seconds() * 1e3,
				}
			}
		}
		snap.PRAM[name] = es
	}
	s.statsMu.Unlock()
	return snap
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// String identifies the server configuration in logs.
func (s *Server) String() string {
	return fmt.Sprintf("partreed(maxBatch=%d linger=%s cache=%d inflight=%d)",
		s.cfg.MaxBatch, s.cfg.Linger, s.cfg.CacheSize, cap(s.inflight))
}

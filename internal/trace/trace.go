// Package trace is the runtime's always-compiled, disarmed-by-default
// tracing layer: a bounded in-memory ring of spans recorded by the pram
// runtime (one span per phase, plus per-worker slices per statement), by
// the partreed batcher (one span per batch) and by the HTTP layer (one
// span per traced request), exportable as Chrome `chrome://tracing` JSON
// and as a compact text summary.
//
// Arming is per-Trace: code paths that can trace hold a *Trace pointer
// that is nil by default, so the disarmed cost is a pointer compare —
// the same discipline as internal/faultpoint's atomic-load-when-disarmed
// hooks, one word cheaper. A Trace itself is safe for concurrent Add and
// snapshot calls (one mutex, bounded memory), so a single recorder can
// collect spans from a whole batch pipeline.
//
// Spans carry the paper's phase-structured cost model: the pram runtime
// closes each phase span with the counted Steps/Work/Calls and the
// measured Busy/BarrierWait deltas booked under that
// phase label, so a trace is the timeline view of exactly the numbers
// Stats() reports — the two can never disagree (a differential test
// holds that line).
package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span categories. The category names both the Chrome-trace "cat" field
// and which payload fields are meaningful.
const (
	// CatPhase is a pram phase window (tid 0): label, counted
	// steps/work/calls and measured busy/barrier deltas.
	CatPhase = "phase"
	// CatWorker is one worker's slice of one parallel statement
	// (tid 1..w): busy time and elements executed.
	CatWorker = "worker"
	// CatBatch is one partreed batch execution: job count and cut reason.
	CatBatch = "batch"
	// CatRequest is one traced HTTP request: engine and cache disposition.
	CatRequest = "request"
)

// Span is one recorded interval. Start is an offset from the owning
// Trace's epoch; zero-valued payload fields are omitted from exports.
type Span struct {
	// Name is the span label: a pram phase label, an engine name for
	// batch/request spans.
	Name string
	// Cat is one of the Cat* constants.
	Cat string
	// TID is the Chrome-trace thread lane: 0 for the orchestrator
	// (phase/batch/request spans), 1..w for worker slices.
	TID int
	// Start is the span's start offset from the Trace epoch; Dur its
	// wall-clock length.
	Start time.Duration
	Dur   time.Duration

	// P is the declared PRAM processor count (0 when unbounded) and W the
	// executing worker count, for phase spans.
	P int
	W int
	// Counted cost deltas booked while the span was open.
	Steps int64
	Work  int64
	Calls int64
	// Measured scheduler deltas.
	Busy        time.Duration
	BarrierWait time.Duration
	// SpanEst is the critical-path estimate accumulated over the window
	// (PhaseStats.Span), distinct from the wall-clock Dur.
	SpanEst time.Duration

	// Jobs and Cut describe batch spans (job count, cut reason); Cut
	// doubles as the cache disposition ("hit"/"miss") on request spans.
	Jobs int
	Cut  string
}

// DefaultCapacity bounds a Trace constructed with New(0).
const DefaultCapacity = 4096

// Trace is a bounded ring of spans. Once the ring is full each Add
// evicts the oldest span and bumps the Dropped counter, so an armed
// trace can run for ever in O(capacity) memory.
type Trace struct {
	epoch time.Time

	mu      sync.Mutex
	id      string
	buf     []Span // grows lazily to cap(ring); then a circular buffer
	cap     int
	next    int // oldest slot once the ring has wrapped
	dropped int64
}

// New returns an empty Trace holding at most capacity spans
// (DefaultCapacity when capacity <= 0). The epoch — the zero point every
// span's Start is relative to — is the moment of creation.
func New(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Trace{epoch: time.Now(), cap: capacity}
}

// ID returns the trace's identifier (empty unless SetID was called).
func (t *Trace) ID() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// SetID names the trace; partreed stamps each per-request trace with a
// fresh NewID and echoes it in the X-Partree-Trace-Id response header.
func (t *Trace) SetID(id string) {
	t.mu.Lock()
	t.id = id
	t.mu.Unlock()
}

// Epoch returns the trace's zero point.
func (t *Trace) Epoch() time.Time { return t.epoch }

// Now returns the current offset from the trace's epoch — the Start a
// span beginning now should carry.
func (t *Trace) Now() time.Duration { return time.Since(t.epoch) }

// Add records one span, evicting the oldest recorded span when the ring
// is full. Safe for concurrent use.
func (t *Trace) Add(s Span) {
	t.mu.Lock()
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.next] = s
		t.next++
		if t.next == t.cap {
			t.next = 0
		}
		t.dropped++
	}
	t.mu.Unlock()
}

// Len returns the number of spans currently held (at most the capacity).
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Dropped returns how many spans have been evicted to keep the ring
// bounded.
func (t *Trace) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset empties the ring (capacity and epoch keep their values) so a
// long-lived recorder can be reused across runs.
func (t *Trace) Reset() {
	t.mu.Lock()
	t.buf = t.buf[:0]
	t.next = 0
	t.dropped = 0
	t.mu.Unlock()
}

// Spans returns the recorded spans in insertion order. The returned
// slice is a copy; mutating it does not affect the trace.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.buf))
	if len(t.buf) == t.cap {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Graft copies src's spans into t, rebasing their Start offsets from
// src's epoch to t's. partreed uses it to hand each traced request the
// spans of the batch run that computed it: co-batched jobs share the
// batch's spans, each rebased onto its own request timeline.
func (t *Trace) Graft(src *Trace) {
	if src == nil || src == t {
		return
	}
	off := src.epoch.Sub(t.epoch)
	for _, s := range src.Spans() {
		s.Start += off
		t.Add(s)
	}
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (ph "X" = complete event, ph "M" = metadata). ts and dur are in
// microseconds per the format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// args assembles the span's non-zero payload fields.
func (s *Span) args() map[string]any {
	a := make(map[string]any)
	put := func(k string, v int64) {
		if v != 0 {
			a[k] = v
		}
	}
	put("p", int64(s.P))
	put("w", int64(s.W))
	put("steps", s.Steps)
	put("work", s.Work)
	put("calls", s.Calls)
	if s.Busy != 0 {
		a["busy_us"] = us(s.Busy)
	}
	if s.BarrierWait != 0 {
		a["barrier_us"] = us(s.BarrierWait)
	}
	if s.SpanEst != 0 {
		a["span_us"] = us(s.SpanEst)
	}
	put("jobs", int64(s.Jobs))
	if s.Cut != "" {
		a["cut"] = s.Cut
	}
	if len(a) == 0 {
		return nil
	}
	return a
}

// WriteJSON writes the trace in Chrome trace-event format; load the
// output in chrome://tracing (or https://ui.perfetto.dev) to see the
// per-phase timeline with one lane per worker. Events are sorted by
// start time, so ts is monotonically non-decreasing across the file
// (and therefore within every tid).
func (t *Trace) WriteJSON(w io.Writer) error {
	spans := t.Spans()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })

	maxTID := 0
	for i := range spans {
		if spans[i].TID > maxTID {
			maxTID = spans[i].TID
		}
	}
	events := make([]chromeEvent, 0, len(spans)+maxTID+1)
	for tid := 0; tid <= maxTID; tid++ {
		name := "orchestrator"
		if tid > 0 {
			name = fmt.Sprintf("worker %d", tid-1)
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	for i := range spans {
		s := &spans[i]
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", PID: 1, TID: s.TID,
			TS: us(s.Start), Dur: us(s.Dur), Args: s.args(),
		})
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		Dropped         int64         `json:"partreeDroppedSpans,omitempty"`
		ID              string        `json:"partreeTraceId,omitempty"`
	}{events, "ms", t.Dropped(), t.ID()}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

// Summary writes a compact per-label text table: span count, total wall
// time, counted work and the scheduler deltas, aggregated over phase and
// batch spans (worker slices are folded into their phase's row via the
// phase's own Busy counter, so they are not double-listed).
func (t *Trace) Summary(w io.Writer) {
	type agg struct {
		cat   string
		count int64
		wall  time.Duration
		steps int64
		work  int64
		busy  time.Duration
	}
	byName := make(map[string]*agg)
	var names []string
	for _, s := range t.Spans() {
		if s.Cat == CatWorker {
			continue
		}
		a, ok := byName[s.Name+"\x00"+s.Cat]
		if !ok {
			a = &agg{cat: s.Cat}
			byName[s.Name+"\x00"+s.Cat] = a
			names = append(names, s.Name+"\x00"+s.Cat)
		}
		a.count++
		a.wall += s.Dur
		a.steps += s.Steps
		a.work += s.Work
		a.busy += s.Busy
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %-8s %6s %12s %10s %12s %12s\n",
		"span", "cat", "count", "wall", "steps", "work", "busy")
	for _, key := range names {
		a := byName[key]
		name := key[:len(key)-len(a.cat)-1]
		fmt.Fprintf(w, "%-28s %-8s %6d %12s %10d %12d %12s\n",
			name, a.cat, a.count, a.wall.Round(time.Microsecond),
			a.steps, a.work, a.busy.Round(time.Microsecond))
	}
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(w, "(%d spans dropped by the ring bound)\n", d)
	}
}

// --- context plumbing ---

type ctxKey struct{}

// NewContext returns a context carrying tr. The partree *Context entry
// points and the partreed batcher pick the trace up from the context, so
// one recorder follows a request through batching into the PRAM run.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the Trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// --- trace IDs ---

var idCounter atomic.Uint64

// NewID returns a process-unique trace identifier.
func NewID() string {
	return fmt.Sprintf("t-%x-%x", time.Now().UnixMilli(), idCounter.Add(1))
}

package partree

import (
	"context"

	"partree/internal/trace"
)

// Tracing. Every parallel entry point can capture a per-call trace: one
// span per algorithm phase (counted steps/work plus the scheduler's
// busy/barrier deltas, exactly the numbers Stats reports)
// and one slice per worker per parallel statement. Arm it either with
// Options.Trace or — for the *Context entry points — by attaching the
// recorder to the context with TraceContext. Disarmed (the default) the
// hooks cost one pointer compare per statement; nothing is allocated.
//
// Export the capture with Trace.WriteJSON (Chrome trace-event format —
// load it in chrome://tracing or https://ui.perfetto.dev) or
// Trace.Summary (compact per-phase text table):
//
//	tr := partree.NewTrace(0)
//	res, _ := partree.HuffmanParallel(weights, partree.Options{Trace: tr})
//	_ = tr.WriteJSON(f)

// Trace is a bounded in-memory span recorder; see NewTrace.
type Trace = trace.Trace

// TraceSpan is one recorded interval of a Trace.
type TraceSpan = trace.Span

// NewTrace returns an empty recorder holding at most capacity spans
// (capacity <= 0 means a 4096-span default). When the ring is full the
// oldest span is evicted, so a trace never grows without bound.
func NewTrace(capacity int) *Trace { return trace.New(capacity) }

// TraceContext returns a context carrying tr. The *Context entry points
// arm tracing from the context when Options.Trace is unset, so a caller
// can thread one recorder through call layers (partreed threads it
// through its request batcher this way — co-batched jobs share the batch
// run's spans).
func TraceContext(ctx context.Context, tr *Trace) context.Context {
	return trace.NewContext(ctx, tr)
}

// TraceFromContext returns the Trace attached by TraceContext, or nil.
func TraceFromContext(ctx context.Context) *Trace {
	return trace.FromContext(ctx)
}

// acquireContext builds the machine for a *Context entry point: a pooled
// Options machine (see machinepool.go) with ctx attached for cooperative
// cancellation, and tracing armed from Options.Trace or, failing that,
// the context. The returned release follows acquire's contract.
func (o Options) acquireContext(ctx context.Context) (*pramMachine, func()) {
	m, release := o.acquire()
	m.SetContext(ctx)
	if o.Trace == nil {
		if tr := trace.FromContext(ctx); tr != nil {
			m.SetTracer(tr)
		}
	}
	return m, release
}

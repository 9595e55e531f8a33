package serve

import (
	"encoding/json"
	"time"

	"partree/internal/trace"
)

// Wire form of a traced request's capture. A request with
// "X-Partree-Trace: 1" receives its normal result nested under "result"
// and the span timings under "trace" — the request span itself, the
// batch span of the run that computed the value (grafted by the batcher,
// so co-batched jobs all see the shared run), and that run's PRAM phase
// spans with their counted steps/work and scheduler deltas.

type traceSpanJSON struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	TID  int    `json:"tid,omitempty"`
	// Offsets/durations in microseconds from the request trace's epoch
	// (request admission), matching the Chrome-trace export's unit.
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`

	P         int     `json:"p,omitempty"`
	W         int     `json:"w,omitempty"`
	Steps     int64   `json:"steps,omitempty"`
	Work      int64   `json:"work,omitempty"`
	Calls     int64   `json:"calls,omitempty"`
	BusyUS    float64 `json:"busy_us,omitempty"`
	BarrierUS float64 `json:"barrier_us,omitempty"`
	SpanEstUS float64 `json:"span_est_us,omitempty"`

	Jobs int    `json:"jobs,omitempty"`
	Cut  string `json:"cut,omitempty"`
}

type traceEnvelope struct {
	ID      string          `json:"id"`
	Dropped int64           `json:"dropped_spans,omitempty"`
	Spans   []traceSpanJSON `json:"spans"`
}

type tracedResponse struct {
	Trace  *traceEnvelope  `json:"trace"`
	Result json.RawMessage `json:"result"`
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func traceEnvelopeOf(tr *trace.Trace) *traceEnvelope {
	spans := tr.Spans()
	env := &traceEnvelope{
		ID:      tr.ID(),
		Dropped: tr.Dropped(),
		Spans:   make([]traceSpanJSON, len(spans)),
	}
	for i, s := range spans {
		env.Spans[i] = traceSpanJSON{
			Name:      s.Name,
			Cat:       s.Cat,
			TID:       s.TID,
			StartUS:   usOf(s.Start),
			DurUS:     usOf(s.Dur),
			P:         s.P,
			W:         s.W,
			Steps:     s.Steps,
			Work:      s.Work,
			Calls:     s.Calls,
			BusyUS:    usOf(s.Busy),
			BarrierUS: usOf(s.BarrierWait),
			SpanEstUS: usOf(s.SpanEst),
			Jobs:      s.Jobs,
			Cut:       s.Cut,
		}
	}
	return env
}

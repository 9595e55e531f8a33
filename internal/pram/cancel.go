package pram

import "context"

// Cooperative cancellation.
//
// A Machine optionally carries a context.Context; when it does, the
// orchestrating goroutine polls it at statement barriers — on entry to
// every For/ForRange and again when the worker barrier releases — and the
// serial fast path polls between grain-sized chunks. Worker goroutines
// additionally poll before each chunk claim and simply stop taking
// work; only the orchestrator unwinds, by panicking with an *abortPanic
// that Run converts back into the context's error. Kernels holding pooled
// workspaces across statements install recover-release-repanic defers so
// the unwind returns every slab to the arena (the pooldebug ledger stays
// balanced across an abort).
//
// Barriers are the cheap place to poll: the fast path with no context
// attached is a single nil check (no allocation, no atomic), polling
// never appears in the counted Steps/Work, and between barriers the
// workers run exactly the code they run today. A machine whose statement
// was aborted mid-flight has executed an unspecified subset of the
// statement's iterations; callers must discard it (and any data it was
// writing) after Run returns a non-nil error.

// abortPanic carries the context error through the kernel stack from a
// checkpoint to the enclosing Run. It is deliberately unexported: foreign
// panics pass through Run untouched.
type abortPanic struct{ err error }

// SetContext attaches ctx for cooperative cancellation of subsequent
// statements. Contexts that can never be canceled (context.Background,
// context.TODO — anything whose Done returns nil) are ignored, keeping
// the zero-overhead fast path. Passing nil detaches any prior context.
// SetContext must not be called concurrently with a running For.
func (m *Machine) SetContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		m.ctx = nil
		return
	}
	m.ctx = ctx
}

// Err returns the attached context's error: nil while live, and
// context.Canceled or context.DeadlineExceeded once the context is done.
// Safe to call from statement bodies on worker goroutines.
func (m *Machine) Err() error {
	if m.ctx == nil {
		return nil
	}
	return m.ctx.Err()
}

// Canceled reports whether the attached context is done. Statement bodies
// use it to skip per-iteration work cooperatively (return early) without
// panicking on a worker goroutine; the orchestrator's next checkpoint
// turns the condition into an error.
func (m *Machine) Canceled() bool { return m.Err() != nil }

// checkpoint aborts the current computation if the attached context is
// done. It must only run on the orchestrating goroutine (the one inside
// Run): the abort is a panic, and a panic on a worker goroutine would
// kill the process instead of unwinding to Run's recover.
func (m *Machine) checkpoint() {
	if m.ctx == nil {
		return
	}
	if err := m.ctx.Err(); err != nil {
		panic(&abortPanic{err})
	}
}

// Run executes f, converting a cancellation unwind from one of f's
// checkpoints into that context's error (context.Canceled or
// context.DeadlineExceeded). All other panics propagate unchanged. On a
// non-nil return the machine's statement may have been cut mid-flight:
// discard the machine and whatever f was computing.
func (m *Machine) Run(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ap, ok := r.(*abortPanic)
			if !ok {
				panic(r)
			}
			err = ap.err
		}
	}()
	f()
	return nil
}

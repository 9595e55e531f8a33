package partree

import (
	"runtime"
	"sync"
	"sync/atomic"

	"partree/internal/pram"
)

// Machine reuse. Every facade entry point used to construct a fresh
// pram.Machine per call; under service traffic (millions of small jobs)
// that construction — and the worker-pool spawn behind the machine's
// first statement — dominated dispatch cost. The facade now keeps a
// small free list of idle machines per Options shape: acquire pops a
// warm machine (resident workers parked, adaptive-grain calibration
// intact) or constructs one, and the paired release scrubs the per-call
// state (context, tracer, stats) and returns it. Idle machines cost no
// goroutines after the runtime's idle timeout — parked workers retire on
// their own — so the pool never pins resources; DrainMachinePool drops
// the free lists synchronously for tests and service shutdown.

// machineKey identifies machines that are interchangeable: same worker
// count (resolved, so Workers: 0 and an explicit GOMAXPROCS value
// share), declared processor count, and pinned grain (0 = adaptive).
// Trace and context are per-call state, scrubbed on release, so they are
// not part of the key.
type machineKey struct {
	workers int
	procs   int
	grain   int
}

// machinePoolCap bounds each key's free list: enough to cover the
// service's per-engine batchers plus concurrent facade callers without
// hoarding arbitrarily many parked pools under a load spike. It scales
// with the core count (more cores run more concurrent batchers) and is
// 16 on hosts with up to 7 CPUs.
var machinePoolCap = min(max(2*runtime.NumCPU()+2, 16), 64)

type machinePool struct {
	mu   sync.Mutex
	idle map[machineKey][]*pram.Machine

	constructed atomic.Int64
	reused      atomic.Int64
	discarded   atomic.Int64
}

var machines machinePool

// MachinePoolCounters is a snapshot of the facade machine pool's
// lifetime counters: Constructed + Reused = total acquires; Discarded
// counts releases that closed the machine instead of pooling it (free
// list full, or the call aborted).
type MachinePoolCounters struct {
	Constructed int64
	Reused      int64
	Discarded   int64
}

// MachinePoolStats returns the machine pool's counters, accumulated
// since process start or the last DrainMachinePool. At steady state
// Reused grows while Constructed stays flat — the property the E14
// experiment gates.
func MachinePoolStats() MachinePoolCounters {
	return MachinePoolCounters{
		Constructed: machines.constructed.Load(),
		Reused:      machines.reused.Load(),
		Discarded:   machines.discarded.Load(),
	}
}

// DrainMachinePool closes every idle pooled machine, empties the free
// lists and zeroes the lifetime counters, returning how many machines
// were dropped. In-flight machines are unaffected (their release
// re-pools them afterwards). The counter reset is what lets each
// experiment sharing one process start from a clean slate instead of
// subtracting the others' churn.
func DrainMachinePool() int {
	machines.mu.Lock()
	var all []*pram.Machine
	for k, list := range machines.idle {
		all = append(all, list...)
		delete(machines.idle, k)
	}
	machines.mu.Unlock()
	for _, m := range all {
		m.Close()
	}
	machines.constructed.Store(0)
	machines.reused.Store(0)
	machines.discarded.Store(0)
	return len(all)
}

// key resolves the Options shape.
func (o Options) key() machineKey {
	k := machineKey{workers: o.Workers, procs: o.Processors, grain: o.Grain}
	if k.workers == 0 {
		k.workers = runtime.GOMAXPROCS(0)
	}
	return k
}

// machine constructs a machine of the key's shape.
func (k machineKey) machine() *pram.Machine {
	opts := []pram.Option{pram.WithWorkers(k.workers)}
	if k.procs > 0 {
		opts = append(opts, pram.WithProcessors(k.procs))
	}
	if k.grain > 0 {
		opts = append(opts, pram.WithGrain(k.grain))
	}
	return pram.New(opts...)
}

// acquire returns a machine for this Options shape and the release that
// must be called (exactly once, usually deferred) when the call's stats
// have been read. Read Stats/statsOf before release runs: release scrubs
// the machine for the next caller.
func (o Options) acquire() (*pram.Machine, func()) {
	key := o.key()
	machines.mu.Lock()
	var m *pram.Machine
	if list := machines.idle[key]; len(list) > 0 {
		m = list[len(list)-1]
		list[len(list)-1] = nil
		machines.idle[key] = list[:len(list)-1]
	}
	machines.mu.Unlock()

	if m == nil {
		m = key.machine()
		machines.constructed.Add(1)
	} else {
		machines.reused.Add(1)
	}
	if o.Trace != nil {
		m.SetTracer(o.Trace)
	}

	released := false
	release := func() {
		if released {
			return
		}
		released = true
		machines.put(key, m)
	}
	return m, release
}

// put scrubs a machine's per-call state and re-pools it. Aborted
// machines (context fired mid-run) are closed instead: the unwind paths
// are tested clean, but a cancellation is rare enough that rebuilding is
// cheaper than proving every kernel left no residue.
func (p *machinePool) put(key machineKey, m *pram.Machine) {
	aborted := m.Err() != nil // before SetContext(nil) clears the evidence
	m.SetContext(nil)
	m.SetTracer(nil)
	if aborted {
		m.Close()
		p.discarded.Add(1)
		return
	}
	// Reset drops the caller-visible stats but keeps the adaptive-grain
	// calibration — that is workload knowledge, and sharing it across
	// calls of the same shape is part of the point of reuse.
	m.Reset()

	p.mu.Lock()
	if p.idle == nil {
		p.idle = make(map[machineKey][]*pram.Machine)
	}
	if len(p.idle[key]) < machinePoolCap {
		p.idle[key] = append(p.idle[key], m)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	m.Close()
	p.discarded.Add(1)
}

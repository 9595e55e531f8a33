package pram

import (
	"sync/atomic"
	"time"
)

// The execution engine behind Machine.For: one shared chunk cursor per
// statement.
//
// Every statement is one flat index loop over [0, n) (For cannot nest),
// so the workers balance it by claiming grain-sized chunks from a single
// atomic cursor: lo = cursor.Add(g) − g, executing [lo, min(lo+g, n)),
// until lo ≥ n. This is OpenMP's schedule(dynamic, g), with g the
// machine's grain evened out by evenChunk. A skewed chunk delays only
// the worker holding it; the others keep claiming, so the statement
// balances at grain granularity with one atomic add per chunk and no
// locks. Each claim takes a range no other worker can take, so
// every index runs exactly once; the statement barrier is the WaitGroup
// around the worker calls (see wpool.go).
//
// Worker goroutines are resident (see wpool.go): parked between
// statements and woken per statement, so steady-state dispatch spawns
// nothing.

// spawnedWorkers counts every worker goroutine launched, process-wide.
// Monotone; read it twice and subtract to measure goroutines spawned by
// a window of statements (the resident pool's steady state must show a
// delta of zero).
var spawnedWorkers atomic.Int64

// SpawnedWorkers returns the total number of PRAM worker goroutines
// launched in this process since start.
func SpawnedWorkers() int64 { return spawnedWorkers.Load() }

// cursor is a statement's next unclaimed index. Every worker adds to it
// once per chunk, so it is padded out to two cache lines (adjacent-line
// prefetch pulls pairs) and allocated on its own: the claims never
// false-share with the statement parameters the workers read.
type cursor struct {
	next atomic.Int64
	_    [128 - 8]byte
}

// workerStats is one worker's contribution to a statement's observability
// counters, written only by that worker during the statement and
// aggregated by the caller at the barrier — the workers themselves never
// touch a shared counter mid-statement. Entries are adjacent in one
// slice, so each is padded out to two cache lines; workers update busy
// and elems on every chunk, and unpadded entries would false-share those
// writes across all cores.
type workerStats struct {
	busy   time.Duration // time spent executing body chunks
	finish time.Duration // time from statement start until the worker exited
	elems  int
	_      [128 - 24]byte
}

// aggregate folds the per-worker breakdown into one statement
// measurement at the barrier: sums, the critical path (slowest worker's
// finish) and the residual imbalance (everyone's wait for that worker).
func aggregate(ws []workerStats) stmtStats {
	var st stmtStats
	var maxFinish time.Duration
	for i := range ws {
		st.busy += ws[i].busy
		if ws[i].finish > maxFinish {
			maxFinish = ws[i].finish
		}
	}
	for i := range ws {
		st.barrierWait += maxFinish - ws[i].finish
	}
	st.span = maxFinish
	return st
}

// evenChunk shrinks grain g so a statement over [0, n) on w workers
// splits into equal chunks whose count is a multiple of w: a uniform
// statement then ends with every worker on its last chunk at once,
// instead of one worker finishing a full grain while another holds a
// sliver. Statements of one or two grains, common in the kernels, would
// otherwise run up to twice as long as an even split.
func evenChunk(n, w, g int) int {
	rounds := (n + g*w - 1) / (g * w)
	return (n + rounds*w - 1) / (rounds * w)
}

// worker is the per-goroutine scheduling loop of worker id: claim the
// next chunk from the statement's cursor and execute it, until the
// cursor passes n or the statement is cancelled.
//
// p.exact selects the timing discipline. Exact — required when a tracer
// is armed — brackets every body chunk with clock reads, so per-worker
// busy time is precise at two time.Now() calls per chunk. Amortized (the
// disarmed default) reads the clock twice per worker and books the
// worker's whole wall time as busy, so the measured Stats fields become
// approximate-but-monotone while counted steps/work/elems stay exact.
// For the small statements that dominate service traffic the clock reads
// are the dispatch hot path — see EXPERIMENTS.md E14.
func (p *wpool) worker(id int) {
	n, g, body, done, exact := p.n, p.g, p.body, p.done, p.exact
	ws := &p.ws[id]
	t0 := p.start
	if !exact {
		t0 = time.Now()
	}
	for {
		if done != nil {
			select {
			case <-done:
				// Cooperative bail before the next claim. No panic here —
				// a panic on a worker goroutine would kill the process;
				// unclaimed chunks are abandoned and the orchestrator
				// aborts at the barrier.
				p.finish(ws, t0)
				return
			default:
			}
		}
		lo := int(p.cur.next.Add(int64(g))) - g
		if lo >= n {
			break
		}
		hi := min(lo+g, n)
		if exact {
			tc := time.Now()
			body(lo, hi)
			ws.busy += time.Since(tc)
		} else {
			body(lo, hi)
		}
		ws.elems += hi - lo
	}
	p.finish(ws, t0)
}

// finish closes out a worker's timing. Amortized mode books the worker's
// own wall time as busy so the loop above never touched the clock per
// chunk; finish stays relative to the statement's start instant in both
// modes so barrier-wait aggregation is uniform.
func (p *wpool) finish(ws *workerStats, t0 time.Time) {
	if p.exact {
		ws.finish = time.Since(p.start)
		return
	}
	ws.busy = time.Since(t0)
	ws.finish = t0.Sub(p.start) + ws.busy
}

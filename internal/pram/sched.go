package pram

import (
	"sync"
	"sync/atomic"
	"time"
)

// The execution engine behind Machine.For: a work-stealing scheduler.
//
// Each parallel statement's index space [0, n) is partitioned evenly into
// one contiguous range per executing worker, held in a per-worker deque.
// A worker pops grain-sized chunks from the bottom (low end) of its own
// range; when its range is empty it steals the top half of a victim's
// remaining range and installs it as its own (chunk stealing, in the
// style of lazy binary splitting). Stealing moves whole half-ranges, so
// the total number of steals per statement is O(w log(n/g)) and the mutex
// on each deque is uncontended in the common case.
//
// A thief executes the first grain of a stolen range immediately and
// parks only the remainder in its own deque. That ordering is what makes
// the scheduler livelock-free: every successful steal executes at least
// one index before the thief steals again, so steals per statement are
// bounded by the element count. (Install-then-pop, the obvious ordering,
// lets another thief snatch the range back through the window between
// install and pop — on a contended host two workers can phase-lock into
// stealing a single index back and forth indefinitely.)
//
// A worker exits after one full scan of all deques finds nothing to
// steal. The chunk a thief is currently executing is invisible to that
// scan, so a worker can exit while work remains in flight — that only
// reduces parallelism at the statement's tail, never correctness,
// because the holder always executes what it stole. The statement
// barrier is the WaitGroup around the worker calls: For returns only
// after every range has been executed exactly once.
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

// wdeque is one worker's deque: a contiguous sub-range [lo, hi) of the
// statement's index space. Bottom (lo side) is popped by the owner; the
// top half is removed by thieves. Deques live in one contiguous slice,
// so each is padded out to two cache lines: without the padding every
// owner pop dirties its neighbours' lines and the per-chunk mutex
// traffic ping-pongs between cores even when no stealing happens.
type wdeque struct {
	mu     sync.Mutex
	lo, hi int
	_      [128 - 24]byte
}

// pop removes up to g indices from the bottom of the range.
func (d *wdeque) pop(g int) (lo, hi int, ok bool) {
	d.mu.Lock()
	if d.lo >= d.hi {
		d.mu.Unlock()
		return 0, 0, false
	}
	lo = d.lo
	hi = lo + g
	if hi > d.hi {
		hi = d.hi
	}
	d.lo = hi
	d.mu.Unlock()
	return lo, hi, true
}

// steal removes the top half of the remaining range (all of it when only
// one index remains).
func (d *wdeque) steal() (lo, hi int, ok bool) {
	d.mu.Lock()
	n := d.hi - d.lo
	if n <= 0 {
		d.mu.Unlock()
		return 0, 0, false
	}
	mid := d.lo + n/2 // n == 1 → mid == lo: the thief takes the lone index
	lo, hi = mid, d.hi
	d.hi = mid
	d.mu.Unlock()
	return lo, hi, true
}

// install replaces the worker's (empty) range with a stolen one.
func (d *wdeque) install(lo, hi int) {
	d.mu.Lock()
	d.lo, d.hi = lo, hi
	d.mu.Unlock()
}

// workerStats is one worker's contribution to a statement's observability
// counters, written only by that worker during the statement and
// aggregated by the caller at the barrier — the workers themselves never
// touch a shared counter mid-statement. Entries are adjacent in one
// slice, so each is padded out to two cache lines; workers update busy
// and elems on every chunk, and unpadded entries would false-share those
// writes across all cores.
type workerStats struct {
	busy      time.Duration // time spent executing body chunks
	finish    time.Duration // time from statement start until the worker exited
	stealWait time.Duration // time spent hunting for work (failed pops to acquired steal, plus the final empty scan)
	steals    int64
	elems     int
	_         [128 - 40]byte
}

// aggregate folds the per-worker breakdown into one statement
// measurement at the barrier: sums, the critical path (slowest worker's
// finish) and the residual imbalance (everyone's wait for that worker).
func aggregate(ws []workerStats) stmtStats {
	var st stmtStats
	var maxFinish time.Duration
	for i := range ws {
		st.busy += ws[i].busy
		st.steals += ws[i].steals
		st.stealWait += ws[i].stealWait
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

// partition installs the statement's even initial split: one contiguous
// range of ⌈n/w⌉ indices per worker.
func partition(dq []wdeque, n, w int) {
	chunk := (n + w - 1) / w
	for i := 0; i < w; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo > hi {
			lo = hi
		}
		dq[i].lo, dq[i].hi = lo, hi
	}
}

// worker is the per-goroutine scheduling loop: drain own deque, then
// steal, until a full victim scan comes up empty. A stolen range's first
// grain is executed before anything else can steal it back (see the
// package comment on livelock freedom).
//
// exact selects the timing discipline. Exact — required when a tracer is
// armed — brackets every body
// chunk and every steal hunt with clock reads, so per-worker busy time
// is precise at two time.Now() calls per chunk. Amortized (exact=false,
// the disarmed default) reads the clock twice per worker plus once per
// steal hunt: busy is the worker's wall time minus its measured steal
// waits (the final empty-handed scan is absorbed into busy), so the
// measured Stats fields become approximate-but-monotone while counted
// steps/work/steals/elems stay exact. For the small statements that
// dominate service traffic the clock reads are the dispatch hot path —
// see EXPERIMENTS.md E14.
func worker(id int, dq []wdeque, g int, body func(lo, hi int), ws *workerStats, start time.Time, done <-chan struct{}, exact bool) {
	seed := uint32(id)*2654435761 + 1
	t0 := start
	if !exact {
		t0 = time.Now()
	}
	for {
		if done != nil {
			select {
			case <-done:
				// Cooperative bail before the next pop or steal. No panic
				// here — a panic on a worker goroutine would kill the
				// process; leftover chunks are abandoned and the
				// orchestrator aborts at the barrier.
				finish(ws, start, t0, exact)
				return
			default:
			}
		}
		lo, hi, ok := dq[id].pop(g)
		if !ok {
			// Everything from here until work is in hand again is the
			// contention probe: time this worker spends scanning victims
			// instead of executing bodies. Amortized mode skips the
			// closing clock read on the final empty-handed scan.
			h := time.Now()
			lo, hi, ok = steal(id, dq, &seed)
			if exact {
				ws.stealWait += time.Since(h)
			}
			if !ok {
				break
			}
			if !exact {
				ws.stealWait += time.Since(h)
			}
			ws.steals++
			if hi-lo > g {
				// Park the remainder where other thieves can find it;
				// our own deque is empty (pop just failed and only we
				// install into it).
				dq[id].install(lo+g, hi)
				hi = lo + g
			}
		}
		if exact {
			tc := time.Now()
			body(lo, hi)
			ws.busy += time.Since(tc)
		} else {
			body(lo, hi)
		}
		ws.elems += hi - lo
	}
	finish(ws, start, t0, exact)
}

// finish closes out a worker's timing. Amortized mode derives busy from
// the worker's own wall time so the loop above never touched the clock
// per chunk; finish stays relative to the statement's start instant in
// both modes so barrier-wait aggregation is uniform.
func finish(ws *workerStats, start, t0 time.Time, exact bool) {
	if exact {
		ws.finish = time.Since(start)
		return
	}
	total := time.Since(t0)
	busy := total - ws.stealWait
	if busy < 0 {
		busy = 0
	}
	ws.busy = busy
	ws.finish = t0.Sub(start) + total
}

// steal scans the other deques from a pseudo-random start and returns the
// first successfully stolen range.
func steal(id int, dq []wdeque, seed *uint32) (int, int, bool) {
	n := len(dq)
	off := int(xorshift32(seed) % uint32(n))
	for t := 0; t < n; t++ {
		v := off + t
		if v >= n {
			v -= n
		}
		if v == id {
			continue
		}
		if lo, hi, ok := dq[v].steal(); ok {
			return lo, hi, true
		}
	}
	return 0, 0, false
}

// xorshift32 is a tiny deterministic PRNG for victim selection; seeding
// by worker id keeps schedules reproducible enough to debug while still
// spreading contention.
func xorshift32(s *uint32) uint32 {
	x := *s
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	*s = x
	return x
}

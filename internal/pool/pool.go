// Package pool provides sized, free-list workspace arenas for the numeric
// slabs backing the repository's hot matrices ([]float64, []uint64, []int,
// []int32). Hot kernels — the monge stride-refinement rounds, the boolmat
// products, the partreed request path — allocate rectangular scratch
// whose shapes recur millions of times under load; recycling those slabs
// removes the allocator and the garbage collector from the steady state.
// (The lincfl separator recursion keeps its matrices in one plain slab
// per call instead.)
//
// The arena is sharded for multicore scaling: free lists live in
// per-worker shards keyed by the P (logical processor) the caller runs on
// (internal/procid), so concurrent kernels on different cores never meet
// on a mutex in the steady state. Each shard keeps small bounded LIFO
// lists per size class; overflow spills in batches to a per-class global
// backing list, and a shard that runs dry refills from it in batches, so
// producer/consumer imbalance between cores costs one global-lock trip
// per refillBatch slabs rather than per slab. SetShards collapses the
// arena to fewer shards (partreed's -workers=1 deployments skip the
// sharding machinery entirely).
//
// Slabs are classed by capacity rounded up to a power of two, from 2^6 to
// 2^22 elements; requests outside that range fall through to plain make
// and Put discards them. Free lists are LIFO so the most recently
// touched — cache-hottest — slab is reused first. Get always returns a
// zeroed slab, so a pooled slab is indistinguishable from a fresh
// make([]T, n).
//
// Misuse detection: the `pooldebug` build tag arms a slab ledger that
// panics on double release and poisons released slabs with sentinel
// values so stale aliased views read garbage deterministically instead of
// silently observing recycled data. The ledger is global — it tracks
// membership in the arena as a whole, so a double release is caught even
// when the two Puts land on different shards. Release builds pay nothing
// for it.
package pool

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"partree/internal/procid"
)

const (
	// minClassBits..maxClassBits bound the pooled slab capacities:
	// 64 elements up to 4Mi elements (32 MiB of float64 at the top).
	minClassBits = 6
	maxClassBits = 22
	numClasses   = maxClassBits - minClassBits + 1

	// maxShards bounds the shard array; the live shard count (a power of
	// two ≤ maxShards) is set from GOMAXPROCS at init and by SetShards.
	maxShards = 64

	// maxFreePerShard bounds retained slabs per class per shard;
	// maxFreeGlobal bounds the per-class global backing list. The memory
	// the arena can pin therefore scales with the number of *active*
	// shards (≈ the core count), not with maxShards.
	maxFreePerShard = 16
	maxFreeGlobal   = 64

	// refillBatch is how many slabs move per shard↔global transfer: large
	// enough to amortize the global lock, small enough that a spill keeps
	// half the shard's hottest slabs local.
	refillBatch = maxFreePerShard / 2
)

// shardCount is the live shard count: a power of two in [1, maxShards].
var shardCount atomic.Int32

func init() {
	shardCount.Store(int32(clampShards(runtime.GOMAXPROCS(0))))
}

// clampShards rounds n up to a power of two within [1, maxShards].
func clampShards(n int) int {
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	return n
}

// Shards returns the live shard count.
func Shards() int { return int(shardCount.Load()) }

// SetShards sets the shard count (rounded up to a power of two, clamped
// to [1, 64]) and returns the previous count. With 1 shard the arena
// degenerates to the single-free-list design — the right choice for a
// single-worker deployment, which would otherwise pay the sharding
// indirection for no contention win. SetShards drains every parked slab
// (counters too), so call it at startup, before the arena warms up.
func SetShards(n int) int {
	prev := int(shardCount.Load())
	shardCount.Store(int32(clampShards(n)))
	Reset()
	return prev
}

// shardIndex maps the calling goroutine to its shard: the P it is
// running on, folded into the live shard count. Purely a locality hint —
// a goroutine migrating mid-operation lands on another shard's (almost
// always uncontended) mutex.
func shardIndex() int {
	return procid.Cur() & int(shardCount.Load()-1)
}

// Stats is a snapshot of arena traffic, summed over all element types
// (and, for the package-level Snapshot, over all shards).
type Stats struct {
	// Gets counts slab requests; Hits the subset served from a free list.
	Gets, Hits int64
	// Puts counts releases; Discards the subset dropped (off-class size,
	// full free lists, or pooling disabled).
	Puts, Discards int64
	// Free is the number of slabs currently parked on free lists
	// (per-shard lists plus the global backing lists).
	Free int
}

// ShardTraffic is one shard's contribution to the arena counters, summed
// over all element types. Exposed so /statsz can report per-shard hit
// rates — a shard with a much lower hit rate than its peers is a worker
// whose allocation pattern defeats the local lists.
type ShardTraffic struct {
	Gets, Hits, Puts, Discards int64
	Free                       int
}

// shard is one worker's private arena: per-class LIFO free lists behind
// a single mutex, plus the shard's traffic counters. The counters are
// grouped per shard and the struct is tail-padded, so two shards never
// share a cache line — the pre-sharding design kept all four counters as
// adjacent package-level atomics, and every worker's Get bounced the
// same lines between cores.
type shard[T any] struct {
	mu   sync.Mutex
	free [numClasses][][]T

	gets, hits     atomic.Int64
	puts, discards atomic.Int64
	_              [64]byte // keep the neighbouring shard off this cache line
}

// backing is one size class's global spill/refill list.
type backing[T any] struct {
	mu   sync.Mutex
	free [][]T
	_    [32]byte // pad so neighbouring classes don't false-share
}

type slabPool[T any] struct {
	shards [maxShards]shard[T]
	global [numClasses]backing[T]
}

// classFor maps a requested length to its size class, or -1 when the
// request is too large to pool.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b > maxClassBits {
		return -1
	}
	return b - minClassBits
}

// classOfCap maps an exact capacity back to its class, or -1 when the
// slab did not come from (and cannot rejoin) the arena.
func classOfCap(c int) int {
	if c < 1<<minClassBits || c > 1<<maxClassBits || c&(c-1) != 0 {
		return -1
	}
	return bits.Len(uint(c)) - 1 - minClassBits
}

func (p *slabPool[T]) get(n int) []T { return p.getAt(shardIndex(), n) }

// getAt is get pinned to a specific shard; the package-level entry points
// pass shardIndex(), tests pass explicit shards to exercise cross-shard
// traffic deterministically on any host.
func (p *slabPool[T]) getAt(si, n int) []T {
	if n < 0 {
		panic("pool: negative slab size")
	}
	sh := &p.shards[si]
	sh.gets.Add(1)
	ci := classFor(n)
	if ci < 0 {
		return make([]T, n)
	}
	sh.mu.Lock()
	if len(sh.free[ci]) == 0 {
		p.refillLocked(sh, ci)
	}
	if k := len(sh.free[ci]); k > 0 {
		s := sh.free[ci][k-1]
		sh.free[ci][k-1] = nil
		sh.free[ci] = sh.free[ci][:k-1]
		sh.mu.Unlock()
		sh.hits.Add(1)
		debugGet(s)
		s = s[:n]
		clear(s)
		return s
	}
	sh.mu.Unlock()
	return make([]T, n, 1<<(ci+minClassBits))
}

// refillLocked pulls up to refillBatch slabs of class ci from the global
// backing list into the shard. The shard mutex is held; the lock order is
// always shard → global (spillLocked matches).
func (p *slabPool[T]) refillLocked(sh *shard[T], ci int) {
	g := &p.global[ci]
	g.mu.Lock()
	k := len(g.free)
	take := refillBatch
	if take > k {
		take = k
	}
	if take > 0 {
		moved := g.free[k-take:]
		sh.free[ci] = append(sh.free[ci], moved...)
		for i := range moved {
			moved[i] = nil
		}
		g.free = g.free[:k-take]
	}
	g.mu.Unlock()
}

func (p *slabPool[T]) put(s []T) { p.putAt(shardIndex(), s) }

// putAt is put pinned to a specific shard (see getAt).
func (p *slabPool[T]) putAt(si int, s []T) {
	sh := &p.shards[si]
	sh.puts.Add(1)
	ci := classOfCap(cap(s))
	if ci < 0 {
		sh.discards.Add(1)
		return
	}
	s = s[:cap(s)]
	sh.mu.Lock()
	// Deferred so a debugPut double-release panic cannot leave the shard
	// locked (the panicking test's cleanup still needs to drain the arena).
	defer sh.mu.Unlock()
	if len(sh.free[ci]) >= maxFreePerShard {
		p.spillLocked(sh, ci)
		if len(sh.free[ci]) >= maxFreePerShard {
			// The global list is full too: the arena is saturated.
			sh.discards.Add(1)
			return
		}
	}
	debugPut(s)
	sh.free[ci] = append(sh.free[ci], s)
}

// spillLocked moves up to refillBatch slabs of class ci from the front —
// the coldest end — of the shard's LIFO list to the global backing list,
// keeping the cache-hottest slabs local. No-op when the global list is
// full. The shard mutex is held.
func (p *slabPool[T]) spillLocked(sh *shard[T], ci int) {
	g := &p.global[ci]
	g.mu.Lock()
	mv := refillBatch
	if room := maxFreeGlobal - len(g.free); mv > room {
		mv = room
	}
	if mv > 0 {
		g.free = append(g.free, sh.free[ci][:mv]...)
		rest := copy(sh.free[ci], sh.free[ci][mv:])
		for i := rest; i < len(sh.free[ci]); i++ {
			sh.free[ci][i] = nil
		}
		sh.free[ci] = sh.free[ci][:rest]
	}
	g.mu.Unlock()
}

// drain empties every shard and backing list and zeroes the counters.
// The parked slabs leave through debugGet so the pooldebug ledger stays
// consistent with arena membership.
func (p *slabPool[T]) drain() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for ci := range sh.free {
			for _, s := range sh.free[ci] {
				debugGet(s)
			}
			sh.free[ci] = nil
		}
		sh.mu.Unlock()
		sh.gets.Store(0)
		sh.hits.Store(0)
		sh.puts.Store(0)
		sh.discards.Store(0)
	}
	for ci := range p.global {
		g := &p.global[ci]
		g.mu.Lock()
		for _, s := range g.free {
			debugGet(s)
		}
		g.free = nil
		g.mu.Unlock()
	}
}

func (p *slabPool[T]) stats() Stats {
	var st Stats
	for i := range p.shards {
		sh := &p.shards[i]
		st.Gets += sh.gets.Load()
		st.Hits += sh.hits.Load()
		st.Puts += sh.puts.Load()
		st.Discards += sh.discards.Load()
		sh.mu.Lock()
		for ci := range sh.free {
			st.Free += len(sh.free[ci])
		}
		sh.mu.Unlock()
	}
	for ci := range p.global {
		g := &p.global[ci]
		g.mu.Lock()
		st.Free += len(g.free)
		g.mu.Unlock()
	}
	return st
}

// addShardTraffic folds this pool's per-shard counters into out, which
// must have length ≥ the live shard count.
func (p *slabPool[T]) addShardTraffic(out []ShardTraffic) {
	for i := range out {
		sh := &p.shards[i]
		out[i].Gets += sh.gets.Load()
		out[i].Hits += sh.hits.Load()
		out[i].Puts += sh.puts.Load()
		out[i].Discards += sh.discards.Load()
		sh.mu.Lock()
		for ci := range sh.free {
			out[i].Free += len(sh.free[ci])
		}
		sh.mu.Unlock()
	}
}

func (p *slabPool[T]) globalFree() int {
	n := 0
	for ci := range p.global {
		g := &p.global[ci]
		g.mu.Lock()
		n += len(g.free)
		g.mu.Unlock()
	}
	return n
}

var (
	f64Pool slabPool[float64]
	u64Pool slabPool[uint64]
	intPool slabPool[int]
	i32Pool slabPool[int32]
)

// Float64s returns a zeroed slab of length n (capacity its size class).
func Float64s(n int) []float64 { return f64Pool.get(n) }

// PutFloat64s returns a slab obtained from Float64s to the arena. The
// caller must not touch the slice afterwards.
func PutFloat64s(s []float64) { f64Pool.put(s) }

// Uint64s returns a zeroed slab of length n.
func Uint64s(n int) []uint64 { return u64Pool.get(n) }

// PutUint64s releases a slab obtained from Uint64s.
func PutUint64s(s []uint64) { u64Pool.put(s) }

// Ints returns a zeroed slab of length n.
func Ints(n int) []int { return intPool.get(n) }

// PutInts releases a slab obtained from Ints.
func PutInts(s []int) { intPool.put(s) }

// Int32s returns a zeroed slab of length n.
func Int32s(n int) []int32 { return i32Pool.get(n) }

// PutInt32s releases a slab obtained from Int32s.
func PutInt32s(s []int32) { i32Pool.put(s) }

// Snapshot sums the traffic counters across all element types and shards.
func Snapshot() Stats {
	var out Stats
	for _, st := range []Stats{f64Pool.stats(), u64Pool.stats(), intPool.stats(), i32Pool.stats()} {
		out.Gets += st.Gets
		out.Hits += st.Hits
		out.Puts += st.Puts
		out.Discards += st.Discards
		out.Free += st.Free
	}
	return out
}

// PerShard returns each live shard's traffic, summed over all element
// types. Slabs parked on the global backing lists are counted by
// GlobalFree, not attributed to any shard.
func PerShard() []ShardTraffic {
	out := make([]ShardTraffic, Shards())
	f64Pool.addShardTraffic(out)
	u64Pool.addShardTraffic(out)
	intPool.addShardTraffic(out)
	i32Pool.addShardTraffic(out)
	return out
}

// GlobalFree returns the number of slabs parked on the global backing
// lists across all element types.
func GlobalFree() int {
	return f64Pool.globalFree() + u64Pool.globalFree() + intPool.globalFree() + i32Pool.globalFree()
}

// Reset drops every parked slab and zeroes the counters (test isolation).
func Reset() {
	f64Pool.drain()
	u64Pool.drain()
	intPool.drain()
	i32Pool.drain()
}

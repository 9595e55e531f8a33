package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// lruCache is a bounded LRU result cache with single-flight collapsing of
// identical in-flight computations. Keys are canonical request hashes
// (see request canonicalization in request.go); values are completed
// response payloads, which are treated as immutable once cached.
type lruCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List               // front = most recently used
	items   map[string]*list.Element // key → element whose Value is *cacheEntry
	flights map[string]*flight       // key → in-flight computation

	// Counters, guarded by mu.
	hits      int64
	misses    int64
	evictions int64
	collapses int64 // callers that waited on another caller's flight
}

type cacheEntry struct {
	key string
	val any
}

// flight is one in-progress computation; done is closed when val/err are
// final. It runs on its leader's goroutine, bounded by the leader's
// deadline but not by the leader's cancellation: a client that hangs up,
// or a gateway's canceled losing hedge, still finishes a computation that
// the callers waiting for it, and later ones through the cache, can use.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// newLRUCache returns a cache holding at most capacity entries;
// capacity must be ≥ 1 (a disabled cache is a nil *lruCache, on which Do
// degrades to calling compute directly).
func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
}

// CacheCounters is a snapshot of the cache's counters.
type CacheCounters struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Collapses int64 `json:"singleflight_collapses"`
}

func (c *lruCache) counters() CacheCounters {
	if c == nil {
		return CacheCounters{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheCounters{
		Size:      c.ll.Len(),
		Capacity:  c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Collapses: c.collapses,
	}
}

// Do returns the cached value for key, or computes it. Concurrent Do
// calls with the same key collapse onto one compute invocation, which the
// first caller runs under its ctx's values and deadline but not its
// cancellation; the others wait for its result or their own ctx. Errors
// are returned to every waiter but never cached, except that a waiter
// whose ctx outlives the flight's deadline retries instead of inheriting
// the context error. hit reports whether the value came from the cache or
// from another caller's flight rather than from this caller's compute.
func (c *lruCache) Do(ctx context.Context, key string, compute func(context.Context) (any, error)) (val any, hit bool, err error) {
	if c == nil {
		v, err := compute(ctx)
		return v, false, err
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.collapses++
		c.mu.Unlock()
		select {
		case <-f.done:
			if ctx.Err() == nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
				return c.Do(ctx, key, compute)
			}
			return f.val, true, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.misses++
	c.mu.Unlock()

	fctx := context.WithoutCancel(ctx)
	if d, ok := ctx.Deadline(); ok {
		var cancel context.CancelFunc
		fctx, cancel = context.WithDeadline(fctx, d)
		defer cancel()
	}
	f.val, f.err = compute(fctx)

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: f.val})
		for c.ll.Len() > c.cap {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*cacheEntry).key)
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

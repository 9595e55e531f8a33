package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"errors"
	"sync"
)

// responseCache is the service's one result cache: a bounded LRU of
// rendered 200 response bodies. Every engine is a pure function of its
// normalized request, so one rendered body answers every spelling of a
// request. An entry is reached by one of two key kinds:
//
//   - a canonical key (see request canonicalization in request.go),
//     filled by Do, which collapses concurrent computations of one key
//     onto a single flight;
//   - a raw key, the digest of a request's path and exact body bytes,
//     filled by put once a request has been answered and looked up by get
//     before any JSON work, so a byte-identical repeat is written straight
//     back without decoding, canonicalization, batching or encoding.
//
// Both kinds share one capacity and one recency order, and a raw entry
// holds the same immutable body slice as the canonical entry it was
// answered from.
type responseCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List               // front = most recently used
	items   map[string]*list.Element // key → element whose Value is *cacheEntry
	flights map[string]*flight       // canonical key → in-flight computation

	// Counters, guarded by mu.
	kinds     [2]kindCounters // indexed by keyKind
	collapses int64           // callers that waited on another caller's flight
}

// maxCachedBody bounds the body an entry may store. Every entry holds a
// rendered response, which grows with the request (a Huffman answer
// carries one code per symbol), so without the bound a few giant answers
// could pin memory far beyond capacity × a typical body. Larger answers
// are still served and still collapse in flight; they are just not kept.
const maxCachedBody = 64 << 10

type keyKind int

const (
	kindCanonical keyKind = iota
	kindRaw
)

// rawKey is a sha256 digest. Both kinds share one key space: a raw key
// is used as its 32 digest bytes, which no canonical key (an engine name,
// a colon and 64 hex digits) equals.
type rawKey [sha256.Size]byte

type cacheEntry struct {
	key  string
	kind keyKind
	body []byte // rendered 200 response, immutable once stored
}

type kindCounters struct {
	size                    int
	hits, misses, evictions int64
}

// flight is one in-progress computation; done is closed when body/err
// are final. It runs on its leader's goroutine, bounded by the leader's
// deadline but not by the leader's cancellation: a client that hangs up,
// or a gateway's canceled losing hedge, still finishes a computation that
// the callers waiting for it, and later ones through the cache, can use.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// newResponseCache returns a cache holding at most capacity entries of
// both kinds together; capacity must be ≥ 1 (a disabled cache is a nil
// *responseCache, on which get misses, put drops and Do calls compute
// directly).
func newResponseCache(capacity int) *responseCache {
	return &responseCache{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
}

// CacheCounters is a snapshot of one key kind's counters. Capacity is
// the capacity both kinds share.
type CacheCounters struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Collapses int64 `json:"singleflight_collapses"`
}

// counters is the canonical-key view, single-flight collapses included.
func (c *responseCache) counters() CacheCounters { return c.view(kindCanonical) }

// rawCounters is the raw-key view.
func (c *responseCache) rawCounters() CacheCounters { return c.view(kindRaw) }

func (c *responseCache) view(kind keyKind) CacheCounters {
	if c == nil {
		return CacheCounters{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.kinds[kind]
	cc := CacheCounters{Size: k.size, Capacity: c.cap, Hits: k.hits, Misses: k.misses, Evictions: k.evictions}
	if kind == kindCanonical {
		cc.Collapses = c.collapses
	}
	return cc
}

// get returns the body stored under raw key k, or nil.
func (c *responseCache) get(k rawKey) []byte {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[string(k[:])]; ok {
		c.ll.MoveToFront(el)
		c.kinds[kindRaw].hits++
		return el.Value.(*cacheEntry).body
	}
	c.kinds[kindRaw].misses++
	return nil
}

// put stores body under raw key k.
func (c *responseCache) put(k rawKey, body []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.insert(string(k[:]), kindRaw, body)
	c.mu.Unlock()
}

// insert adds an entry and evicts from the back past capacity; c.mu is
// held. An existing entry is kept as it is.
func (c *responseCache) insert(key string, kind keyKind, body []byte) {
	if len(body) > maxCachedBody {
		return
	}
	if _, ok := c.items[key]; ok {
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, kind: kind, body: body})
	c.kinds[kind].size++
	for c.ll.Len() > c.cap {
		oldest := c.ll.Remove(c.ll.Back()).(*cacheEntry)
		delete(c.items, oldest.key)
		kc := &c.kinds[oldest.kind]
		kc.size--
		kc.evictions++
	}
}

// Do returns the body cached under canonical key, or computes it.
// Concurrent Do calls with the same key collapse onto one compute
// invocation, which the first caller runs under its ctx's values and
// deadline but not its cancellation; the others wait for its result or
// their own ctx. Errors are returned to every waiter but never cached,
// except that a waiter whose ctx outlives the flight's deadline retries
// instead of inheriting the context error. hit reports whether the body
// came from the cache or from another caller's flight rather than from
// this caller's compute.
func (c *responseCache) Do(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) (body []byte, hit bool, err error) {
	if c == nil {
		b, err := compute(ctx)
		return b, false, err
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.kinds[kindCanonical].hits++
		b := el.Value.(*cacheEntry).body
		c.mu.Unlock()
		return b, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.collapses++
		c.mu.Unlock()
		select {
		case <-f.done:
			if ctx.Err() == nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
				return c.Do(ctx, key, compute)
			}
			return f.body, true, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.kinds[kindCanonical].misses++
	c.mu.Unlock()

	fctx := context.WithoutCancel(ctx)
	if d, ok := ctx.Deadline(); ok {
		var cancel context.CancelFunc
		fctx, cancel = context.WithDeadline(fctx, d)
		defer cancel()
	}
	f.body, f.err = compute(fctx)

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.insert(key, kindCanonical, f.body)
	}
	c.mu.Unlock()
	close(f.done)
	return f.body, false, f.err
}

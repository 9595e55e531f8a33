package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// The fast path short-circuits byte-identical repeat requests before any
// JSON work happens: the raw body is hashed and looked up in a bounded
// LRU of rendered 200-responses. A hit writes the stored bytes straight
// back — no decoding, validation, canonicalization, batching, or
// re-encoding — which is the steady state of a hot partreed deployment
// (the engines are pure functions of the request body, so replaying a
// rendered response is always sound). Misses fall through to the full
// handler and the canonical-key cache, which still collapses requests
// that differ only in JSON spelling.

// maxFastPathBody bounds both the request and response sizes the fast
// path will store, so one giant request cannot monopolize the cache.
const maxFastPathBody = 64 << 10

type rawKey [sha256.Size]byte

type rawEntry struct {
	key  rawKey
	body []byte // rendered 200 response, immutable once stored
}

// rawCache is a bounded LRU from raw-body hash to rendered response.
// Unlike lruCache it has no single-flight layer: concurrent identical
// misses all fall through to the canonical cache, whose flights collapse
// them.
type rawCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[rawKey]*list.Element

	hits, misses, evictions int64
}

func newRawCache(capacity int) *rawCache {
	return &rawCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[rawKey]*list.Element),
	}
}

// get returns the stored response body for k, or nil.
func (c *rawCache) get(k rawKey) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*rawEntry).body
	}
	c.misses++
	return nil
}

func (c *rawCache) put(k rawKey, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[k]; ok {
		return // another request stored it first; keep the existing copy
	}
	c.items[k] = c.ll.PushFront(&rawEntry{key: k, body: body})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*rawEntry).key)
		c.evictions++
	}
}

func (c *rawCache) counters() CacheCounters {
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
	}
}

// bodyBufs recycles the buffers the fast path reads request bodies into
// and captures response bodies with.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBodyBuf() *bytes.Buffer {
	b := bodyBufs.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBodyBuf(b *bytes.Buffer) {
	if b.Cap() <= maxRetainedEncodeBuf {
		bodyBufs.Put(b)
	}
}

// replayReader re-serves an already-read body to the real handler.
type replayReader struct{ bytes.Reader }

func (r *replayReader) Close() error { return nil }

// captureWriter tees a handler's response so a 200 can enter the raw
// cache. Capture silently stops (the response still reaches the client)
// when the body outgrows maxFastPathBody.
type captureWriter struct {
	http.ResponseWriter
	status int
	buf    *bytes.Buffer
	over   bool
}

func (c *captureWriter) WriteHeader(status int) {
	c.status = status
	c.ResponseWriter.WriteHeader(status)
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	if !c.over {
		if c.buf.Len()+len(p) <= maxFastPathBody {
			c.buf.Write(p)
		} else {
			c.over = true
			c.buf.Reset()
		}
	}
	return c.ResponseWriter.Write(p)
}

// serveFastPath answers engine requests whose exact bytes have been seen
// before from the raw cache, and falls through to next on a miss, storing
// the rendered response. next receives a replayed body.
func (s *Server) serveFastPath(engine string, w http.ResponseWriter, r *http.Request, next func(http.ResponseWriter, *http.Request)) {
	buf := getBodyBuf()
	defer putBodyBuf(buf)
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, s.cfg.Limits.MaxBodyBytes+1)); err != nil {
		s.served[engine].Errors.Add(1)
		writeError(w, badRequest("bad_body", "reading request body: %v", err))
		return
	}
	data := buf.Bytes()

	h := getHasher()
	h.Write([]byte(r.URL.Path))
	h.Write([]byte{0})
	h.Write(data)
	var k rawKey
	h.Sum(k[:0])
	putHasher(h)

	if body := s.fast.get(k); body != nil {
		s.served[engine].OK.Add(1)
		hd := w.Header()
		hd.Set("Content-Type", "application/json")
		hd.Set("X-Partree-Cache", "hit")
		hd.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		return
	}

	rr := &replayReader{}
	rr.Reset(data)
	r.Body = rr
	capture := getBodyBuf()
	defer putBodyBuf(capture)
	cw := &captureWriter{ResponseWriter: w, buf: capture}
	next(cw, r)
	if cw.status == http.StatusOK && !cw.over && cw.buf.Len() > 0 && len(data) <= maxFastPathBody {
		s.fast.put(k, append([]byte(nil), cw.buf.Bytes()...))
	}
}

package serve

import (
	"bytes"
	"io"
	"net/http"
	"testing"
	"time"
)

// TestE2EFastPathByteIdentical replays the exact same request bytes and
// checks that the fast-path answer is byte-for-byte the response the full
// pipeline rendered, that the raw cache records the traffic, and that a
// spelling variant of the same request (extra whitespace) misses the raw
// cache but still hits the canonical cache.
func TestE2EFastPathByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 4, Linger: 0, RequestTimeout: 5 * time.Second})
	client := ts.Client()

	body := []byte(`{"weights":[3,1,4,1,5,9,2,6]}`)
	postRaw := func(b []byte) (int, []byte, http.Header) {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/huffman", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes(), resp.Header
	}

	status, first, hdr := postRaw(body)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", status, first)
	}
	if got := hdr.Get("X-Partree-Cache"); got != "miss" {
		t.Fatalf("first request: cache header %q, want miss", got)
	}

	status, second, hdr := postRaw(body)
	if status != http.StatusOK {
		t.Fatalf("second request: status %d", status)
	}
	if got := hdr.Get("X-Partree-Cache"); got != "hit" {
		t.Fatalf("second request: cache header %q, want hit", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("fast-path response differs from rendered response:\n  first:  %s\n  second: %s", first, second)
	}

	snap := s.Snapshot()
	if snap.FastPath.Hits != 1 || snap.FastPath.Misses != 1 {
		t.Fatalf("fastpath counters = %+v, want 1 hit / 1 miss", snap.FastPath)
	}

	// A differently spelled but semantically identical request must miss
	// the raw cache and hit the canonical cache instead.
	status, third, hdr := postRaw([]byte(`{ "weights": [3, 1, 4, 1, 5, 9, 2, 6] }`))
	if status != http.StatusOK {
		t.Fatalf("respaced request: status %d", status)
	}
	if got := hdr.Get("X-Partree-Cache"); got != "hit" {
		t.Fatalf("respaced request: cache header %q, want canonical-cache hit", got)
	}
	if !bytes.Equal(first, third) {
		t.Fatalf("canonical-cache response differs from fast-path response")
	}
	snap = s.Snapshot()
	if snap.FastPath.Misses != 2 {
		t.Fatalf("fastpath counters after respaced request = %+v, want 2 misses", snap.FastPath)
	}
	if snap.Cache.Hits != 1 {
		t.Fatalf("canonical cache counters = %+v, want 1 hit", snap.Cache)
	}

	// The canonical hit stored the respaced spelling's raw key, so its
	// byte-identical repeat is a raw hit.
	status, fourth, hdr := postRaw([]byte(`{ "weights": [3, 1, 4, 1, 5, 9, 2, 6] }`))
	if status != http.StatusOK || hdr.Get("X-Partree-Cache") != "hit" || !bytes.Equal(first, fourth) {
		t.Fatalf("respaced repeat: status %d, cache %q, body %s", status, hdr.Get("X-Partree-Cache"), fourth)
	}
	if snap = s.Snapshot(); snap.FastPath.Hits != 2 || snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Fatalf("after respaced repeat: fastpath %+v, cache %+v; want the repeat answered by its raw key", snap.FastPath, snap.Cache)
	}
}

// postBody sends body verbatim, traced or not, and returns status, body
// and headers.
func postBody(t *testing.T, client *http.Client, url string, body []byte, traced bool) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(traceHeader, "1")
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

// TestE2EFastPathOutlivesCanonicalEntry: raw and canonical entries share
// one capacity and one recency order, and a raw entry keeps serving the
// exact rendered bytes after the canonical entry it was answered from has
// been evicted.
func TestE2EFastPathOutlivesCanonicalEntry(t *testing.T) {
	// CacheSize 1 holds two entries of either kind.
	s, ts := newTestServer(t, Config{MaxBatch: 4, CacheSize: 1, RequestTimeout: 5 * time.Second})
	url := ts.URL + "/v1/huffman"
	a := []byte(`{"weights":[3,1,4,1,5]}`)

	status, first, _ := postBody(t, ts.Client(), url, a, false)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d: %s", status, first)
	}
	// A traced request stores only its canonical key, which evicts the
	// least recently used entry: a's canonical entry, older than its raw
	// one.
	if status, raw, _ := postBody(t, ts.Client(), url, []byte(`{"weights":[2,7,1,8]}`), true); status != http.StatusOK {
		t.Fatalf("traced request: status %d: %s", status, raw)
	}
	snap := s.Snapshot()
	if snap.Cache.Evictions != 1 || snap.FastPath.Evictions != 0 || snap.Cache.Size != 1 || snap.FastPath.Size != 1 {
		t.Fatalf("after eviction: cache %+v, fastpath %+v; want a's canonical entry evicted", snap.Cache, snap.FastPath)
	}

	status, again, hdr := postBody(t, ts.Client(), url, a, false)
	if status != http.StatusOK || hdr.Get("X-Partree-Cache") != "hit" || !bytes.Equal(first, again) {
		t.Fatalf("raw repeat: status %d, cache %q, body %s, want %s", status, hdr.Get("X-Partree-Cache"), again, first)
	}
	// A respelling of a misses both keys now: it is computed again, to the
	// same bytes.
	status, respelled, hdr := postBody(t, ts.Client(), url, []byte(`{"weights":[6,2,8,2,10]}`), false)
	if status != http.StatusOK || hdr.Get("X-Partree-Cache") != "miss" || !bytes.Equal(first, respelled) {
		t.Fatalf("respelled request: status %d, cache %q, body %s, want a recomputed %s", status, hdr.Get("X-Partree-Cache"), respelled, first)
	}
	if snap := s.Snapshot(); snap.FastPath.Evictions == 0 || snap.Cache.Size+snap.FastPath.Size != 2 {
		t.Fatalf("after respelled request: cache %+v, fastpath %+v; want raw evictions and 2 entries in all", snap.Cache, snap.FastPath)
	}
}

// TestE2EFastPathErrorNotCached checks that non-200 responses never enter
// the raw cache: a malformed request repeated twice gets two full-pipeline
// rejections.
func TestE2EFastPathErrorNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 4, Linger: 0, RequestTimeout: 5 * time.Second})
	client := ts.Client()

	bad := []byte(`{"weights":[-1]}`)
	for i := 0; i < 2; i++ {
		resp, err := client.Post(ts.URL+"/v1/huffman", "application/json", bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	if snap := s.Snapshot(); snap.FastPath.Hits != 0 {
		t.Fatalf("an error response was served from the raw cache: %+v", snap.FastPath)
	}
}

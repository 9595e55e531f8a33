package serve

import (
	"bytes"
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

package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"partree"
	"partree/internal/faultpoint"
	"partree/internal/xmath"
)

// Chaos tests: mixed good/slow/oversized traffic against a live server,
// with fault-point hooks making the interesting interleavings
// deterministic. The invariant under attack: one client's deadline (or
// disappearance, or garbage) never damages a co-batched neighbour.

// postDeadline is post with a client-chosen deadline in the
// X-Partree-Deadline-Ms header.
func postDeadline(t *testing.T, client *http.Client, url string, body any, deadlineMs int) (int, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if deadlineMs > 0 {
		req.Header.Set(deadlineHeader, fmtInt(deadlineMs))
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
	return resp.StatusCode, raw
}

func fmtInt(n int) string {
	return string(itoa(n))
}

func itoa(n int) []byte {
	if n == 0 {
		return []byte{'0'}
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return b[i:]
}

// errCode extracts the structured code from an error payload.
func errCode(t *testing.T, raw []byte) string {
	t.Helper()
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("decoding error payload %q: %v", raw, err)
	}
	return e.Error.Code
}

// slowEngine arms a hook that stalls the named engine's batch execution,
// torn down with the test.
func slowEngine(t *testing.T, engine string, d time.Duration) {
	t.Helper()
	faultpoint.Set("batcher.exec", func(args ...any) {
		if name, _ := args[0].(string); name == engine {
			time.Sleep(d)
		}
	})
	t.Cleanup(faultpoint.Reset)
}

// checkHuffman oracle-verifies a 200 huffman response.
func checkHuffman(t *testing.T, raw []byte, weights []float64) {
	t.Helper()
	got := mustDecode[codingResponse](t, raw)
	total := 0.0
	for _, w := range weights {
		total += w
	}
	oracle := partree.HuffmanTree(weights).WeightedPathLength() / total
	if !xmath.AlmostEqual(got.AvgBits, oracle, 1e-9) {
		t.Errorf("avg_bits %v, oracle %v (weights %v)", got.AvgBits, oracle, weights)
	}
}

func reqCounter(snap StatsSnapshot, engine, key string) int64 {
	c := snap.Requests[engine]
	switch key {
	case "ok":
		return c.OK
	case "errors":
		return c.Errors
	case "timeouts":
		return c.Timeouts
	case "canceled":
		return c.Canceled
	}
	return 0
}

// TestChaosTimeoutDoesNotKillCoBatchedJobs: patient and impatient clients
// share a batch whose execution is stalled past the impatient one's
// deadline. The impatient client gets a 504; the patient ones get full,
// oracle-correct answers; the timeout is visible in /statsz.
func TestChaosTimeoutDoesNotKillCoBatchedJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 2, MaxBatch: 8, Linger: 60 * time.Millisecond,
		CacheSize: -1, RequestTimeout: 5 * time.Second,
	})
	slowEngine(t, "huffman", 300*time.Millisecond)

	patient := [][]float64{
		{5, 2, 9, 1},
		{3, 3, 1, 7, 6},
		{10, 1, 1, 1, 1, 4},
	}
	var wg sync.WaitGroup
	statuses := make([]int, len(patient))
	bodies := make([][]byte, len(patient))
	for i, w := range patient {
		wg.Add(1)
		go func(i int, w []float64) {
			defer wg.Done()
			statuses[i], bodies[i], _ = post(t, ts.Client(), ts.URL+"/v1/huffman", codingRequest{Weights: w})
		}(i, w)
	}
	impStatus, impBody := postDeadline(t, ts.Client(), ts.URL+"/v1/huffman",
		codingRequest{Weights: []float64{8, 8, 1, 2}}, 100)
	wg.Wait()

	if impStatus != http.StatusGatewayTimeout {
		t.Errorf("impatient client: status %d (%s), want 504", impStatus, impBody)
	} else if code := errCode(t, impBody); code != "timeout" {
		t.Errorf("impatient client: code %q, want \"timeout\"", code)
	}
	for i := range patient {
		if statuses[i] != http.StatusOK {
			t.Errorf("patient client %d: status %d (%s), want 200", i, statuses[i], bodies[i])
			continue
		}
		checkHuffman(t, bodies[i], patient[i])
	}
	snap := s.Snapshot()
	if n := reqCounter(snap, "huffman", "timeouts"); n < 1 {
		t.Errorf("requests.huffman.timeouts = %d, want >= 1", n)
	}
	if n := reqCounter(snap, "huffman", "ok"); n < int64(len(patient)) {
		t.Errorf("requests.huffman.ok = %d, want >= %d", n, len(patient))
	}
}

// TestChaosDeadlineExpiresInLinger: a deadline shorter than the batch
// linger expires while the job is still queued. The client gets its 504
// promptly, the batcher counts the job as expired, and the engine never
// runs for it.
func TestChaosDeadlineExpiresInLinger(t *testing.T) {
	var execs int64
	var mu sync.Mutex
	faultpoint.Set("batcher.exec", func(args ...any) {
		if name, _ := args[0].(string); name == "huffman" {
			mu.Lock()
			execs++
			mu.Unlock()
		}
	})
	t.Cleanup(faultpoint.Reset)

	s, ts := newTestServer(t, Config{
		MaxBatch: 8, Linger: 250 * time.Millisecond, CacheSize: -1,
	})
	start := time.Now()
	status, raw := postDeadline(t, ts.Client(), ts.URL+"/v1/huffman",
		codingRequest{Weights: []float64{4, 2, 1}}, 30)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", status, raw)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("504 took %v; the client should not wait out the %v linger", elapsed, 250*time.Millisecond)
	}

	// The batch cuts at linger; its only job is already dead and must be
	// expired without running the engine.
	waitFor(t, func() bool { return s.Snapshot().Batchers["huffman"].Expired >= 1 })
	mu.Lock()
	defer mu.Unlock()
	if execs != 0 {
		t.Errorf("engine ran %d times for a batch whose every job had expired", execs)
	}
}

// TestChaosAllSubmittersGoneAbortsBatch: when every client of a stalled
// batch gives up, the batch context is cancelled, the engine run aborts,
// and the batcher counts the jobs as aborted — the machine stops working
// for an audience that left.
func TestChaosAllSubmittersGoneAbortsBatch(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 2, MaxBatch: 8, Linger: 20 * time.Millisecond,
		CacheSize: -1, RequestTimeout: 5 * time.Second,
	})
	slowEngine(t, "huffman", 400*time.Millisecond)

	var wg sync.WaitGroup
	statuses := make([]int, 2)
	weights := [][]float64{{6, 3, 2, 1}, {7, 7, 1}}
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = postDeadline(t, ts.Client(), ts.URL+"/v1/huffman",
				codingRequest{Weights: weights[i]}, 120)
		}(i)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusGatewayTimeout {
			t.Errorf("client %d: status %d, want 504", i, st)
		}
	}
	waitFor(t, func() bool { return s.Snapshot().Batchers["huffman"].Aborted >= 2 })

	// The collector survived the abort: with the stall removed, the next
	// request is served normally.
	faultpoint.Reset()
	w := []float64{9, 4, 2, 1}
	status, raw, _ := post(t, ts.Client(), ts.URL+"/v1/huffman", codingRequest{Weights: w})
	if status != http.StatusOK {
		t.Fatalf("post-abort request: status %d (%s)", status, raw)
	}
	checkHuffman(t, raw, w)
	if p := s.Snapshot().Panics; p != 0 {
		t.Errorf("panics = %d, want 0 — the abort path must not be an engine panic", p)
	}
}

// TestChaosOversizedRequestNoCollateral: a request over the configured
// vector limit is rejected with a structured 400 before it can join a
// batch; a concurrent well-formed request is unaffected.
func TestChaosOversizedRequestNoCollateral(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxBatch: 8, Linger: 30 * time.Millisecond, CacheSize: -1,
		Limits: Limits{MaxVectorLen: 8},
	})
	good := []float64{5, 4, 3, 2, 1}
	oversized := make([]float64, 9)
	for i := range oversized {
		oversized[i] = float64(i + 1)
	}

	var wg sync.WaitGroup
	var goodStatus int
	var goodBody []byte
	wg.Add(1)
	go func() {
		defer wg.Done()
		goodStatus, goodBody, _ = post(t, ts.Client(), ts.URL+"/v1/huffman", codingRequest{Weights: good})
	}()
	badStatus, badBody, _ := post(t, ts.Client(), ts.URL+"/v1/huffman", codingRequest{Weights: oversized})
	wg.Wait()

	if badStatus != http.StatusBadRequest {
		t.Errorf("oversized: status %d (%s), want 400", badStatus, badBody)
	} else if code := errCode(t, badBody); code != "too_large" {
		t.Errorf("oversized: code %q, want \"too_large\"", code)
	}
	if goodStatus != http.StatusOK {
		t.Fatalf("co-submitted good request: status %d (%s)", goodStatus, goodBody)
	}
	checkHuffman(t, goodBody, good)
}

// TestChaosDeadlineHeaderCannotExtend: the per-request header only ever
// tightens the server-wide deadline; a huge header value is clamped.
func TestChaosDeadlineHeaderCannotExtend(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxBatch: 4, Linger: time.Millisecond, CacheSize: -1,
		RequestTimeout: 80 * time.Millisecond,
	})
	slowEngine(t, "huffman", 300*time.Millisecond)

	start := time.Now()
	status, _ := postDeadline(t, ts.Client(), ts.URL+"/v1/huffman",
		codingRequest{Weights: []float64{3, 2, 1}}, 60_000) // asks for a minute
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 at the server-wide deadline", status)
	}
	if elapsed > 250*time.Millisecond {
		t.Errorf("504 took %v; header extended the %v server deadline", elapsed, 80*time.Millisecond)
	}
	if n := reqCounter(s.Snapshot(), "huffman", "timeouts"); n < 1 {
		t.Errorf("requests.huffman.timeouts = %d, want >= 1", n)
	}

	// Headers far beyond RequestTimeout clamp to it too: milliseconds that
	// overflow time.Duration must not wrap into an already-expired
	// deadline. Sent to an engine that is not slowed, so they succeed.
	for i, ms := range []int{10_000_000_000_000, math.MaxInt64} {
		status, raw := postDeadline(t, ts.Client(), ts.URL+"/v1/shannonfano",
			codingRequest{Weights: []float64{3, 2, 1, float64(i + 1)}}, ms)
		if status != http.StatusOK {
			t.Errorf("deadline header %d: status %d (%s), want 200", ms, status, raw)
		}
	}
	if n := reqCounter(s.Snapshot(), "shannonfano", "timeouts"); n != 0 {
		t.Errorf("requests.shannonfano.timeouts = %d, want 0", n)
	}
}

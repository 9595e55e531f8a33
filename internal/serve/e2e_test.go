package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partree"
	"partree/internal/faultpoint"
	"partree/internal/shannonfano"
	"partree/internal/tree"
	"partree/internal/xmath"
)

// newTestServer starts an in-process HTTP server around a serve.Server;
// both are torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logf = t.Logf
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends one JSON request and returns status, body, and headers.
func post(t *testing.T, client *http.Client, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(blob))
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

func mustDecode[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	return v
}

func randomWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 + rng.Float64()*999
	}
	return w
}

// TestE2EHuffmanDifferential checks served Huffman codes against the
// sequential HuffmanTree oracle: equal average code length (the optimum
// is unique even when the tree is not) and a tight Kraft sum.
func TestE2EHuffmanDifferential(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 8, Linger: time.Millisecond})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		weights := randomWeights(rng, 1+rng.Intn(40))
		status, raw, _ := post(t, ts.Client(), ts.URL+"/v1/huffman", codingRequest{Weights: weights})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		got := mustDecode[codingResponse](t, raw)

		total := 0.0
		for _, w := range weights {
			total += w
		}
		oracle := partree.HuffmanTree(weights).WeightedPathLength() / total
		if !xmath.AlmostEqual(got.AvgBits, oracle, 1e-9) {
			t.Errorf("avg_bits %v, oracle %v (weights %v)", got.AvgBits, oracle, weights)
		}
		kraft := 0.0
		for _, l := range got.Lengths {
			kraft += 1 / float64(uint64(1)<<l)
		}
		if kraft > 1+1e-12 {
			t.Errorf("Kraft sum %v > 1", kraft)
		}
		if len(got.Codes) != len(weights) {
			t.Errorf("%d codes for %d symbols", len(got.Codes), len(weights))
		}
	}
}

// TestE2EShannonFanoDifferential checks served Shannon–Fano lengths
// against the oracle on the same normalized vector.
func TestE2EShannonFanoDifferential(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 8, Linger: time.Millisecond})
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		weights := randomWeights(rng, 1+rng.Intn(30))
		status, raw, _ := post(t, ts.Client(), ts.URL+"/v1/shannonfano", codingRequest{Weights: weights})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		got := mustDecode[codingResponse](t, raw)

		probs, apiErr := normalizeWeights(weights, Limits{MaxVectorLen: 1 << 16})
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		want := shannonfano.Lengths(probs)
		for i := range want {
			if got.Lengths[i] != want[i] {
				t.Errorf("trial %d symbol %d: length %d, oracle %d", trial, i, got.Lengths[i], want[i])
			}
		}
		// Claim 7.1: within one bit of Huffman.
		if huff := partree.HuffmanCost(probs); got.AvgBits >= huff+1 {
			t.Errorf("Shannon–Fano %v ≥ Huffman %v + 1", got.AvgBits, huff)
		}
	}
}

// TestE2ETreeFromDepthsDifferential checks realizability verdicts against
// the greedy oracle and that returned trees realize the pattern exactly.
func TestE2ETreeFromDepthsDifferential(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 8, Linger: time.Millisecond})
	rng := rand.New(rand.NewSource(3))
	cases := [][]int{
		{0},
		{1, 1},
		{1, 2, 2},
		{2, 2, 2, 2},
		{1, 1, 1}, // unrealizable
		{3, 1, 2, 4},
	}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(16)
		depths := make([]int, n)
		for i := range depths {
			depths[i] = rng.Intn(8)
		}
		cases = append(cases, depths)
	}
	for i, depths := range cases {
		status, raw, _ := post(t, ts.Client(), ts.URL+"/v1/treefromdepths", depthsRequest{Depths: depths})
		if status != http.StatusOK {
			t.Fatalf("case %d: status %d: %s", i, status, raw)
		}
		got := mustDecode[depthsResponse](t, raw)
		if want := partree.DepthsRealizable(depths); got.Realizable != want {
			t.Errorf("case %d (%v): realizable=%v, oracle %v", i, depths, got.Realizable, want)
			continue
		}
		if !got.Realizable {
			continue
		}
		tr, err := tree.Unmarshal(got.Shape, got.Symbols)
		if err != nil {
			t.Fatalf("case %d: unmarshal: %v", i, err)
		}
		gotDepths := tr.LeafDepths()
		for k := range depths {
			if gotDepths[k] != depths[k] {
				t.Errorf("case %d leaf %d: depth %d, want %d", i, k, gotDepths[k], depths[k])
			}
		}
	}
}

// relabelKeys reconstructs the internal-node key indices of a served
// search tree: the wire format ships only the shape and leaf symbols, and
// the i-th internal node in inorder holds key i.
func relabelKeys(tr *tree.Node) {
	k := 0
	var walk func(v *tree.Node)
	walk = func(v *tree.Node) {
		if v == nil || v.IsLeaf() {
			return
		}
		walk(v.Left)
		v.Symbol = k
		k++
		walk(v.Right)
	}
	walk(tr)
}

// TestE2EOBSTDifferential checks served optimal search trees against the
// Knuth oracle: equal cost (after undoing the unit-mass scaling) and a
// well-formed tree.
func TestE2EOBSTDifferential(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 8, Linger: time.Millisecond})
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(12)
		keys := make([]float64, n)
		gaps := make([]float64, n+1)
		total := 0.0
		for i := range keys {
			keys[i] = rng.Float64()
			total += keys[i]
		}
		for i := range gaps {
			gaps[i] = rng.Float64() * 0.5
			total += gaps[i]
		}
		status, raw, _ := post(t, ts.Client(), ts.URL+"/v1/obst", obstRequest{Keys: keys, Gaps: gaps})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		got := mustDecode[obstResponse](t, raw)

		in, err := partree.NewBSTInstance(keys, gaps)
		if err != nil {
			t.Fatal(err)
		}
		oracleCost, _ := partree.OptimalBST(in)
		if !xmath.AlmostEqual(got.Cost*total, oracleCost, 1e-9) {
			t.Errorf("trial %d: scaled cost %v, oracle %v", trial, got.Cost*total, oracleCost)
		}
		tr, err := tree.Unmarshal(got.Shape, got.Symbols)
		if err != nil {
			t.Fatal(err)
		}
		relabelKeys(tr) // key indices are implied by inorder position
		if err := in.Check(tr); err != nil {
			t.Errorf("trial %d: served tree malformed: %v", trial, err)
		}
	}
}

// TestE2ELinCFLDifferential checks membership verdicts against the
// sequential DP oracle, for both a stock and an explicit grammar.
func TestE2ELinCFLDifferential(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 8, Linger: time.Millisecond})
	pal := partree.PalindromeGrammar()
	words := []string{"abcba", "abcab", "c", "acbca", "", "aacaa", "ab"}
	for _, word := range words {
		status, raw, _ := post(t, ts.Client(), ts.URL+"/v1/lincfl/recognize",
			lincflRequest{Grammar: "palindrome", Word: word})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		got := mustDecode[lincflResponse](t, raw)
		if want := partree.RecognizeLinear(pal, []byte(word)); got.Accepted != want {
			t.Errorf("palindrome %q: accepted=%v, oracle %v", word, got.Accepted, want)
		}
	}

	rules := []lincflRule{
		{A: "S", Pre: "a", B: "S", Suf: "b"},
		{A: "S", Pre: "ab"},
	}
	g, err := partree.NewLinearGrammar([]partree.GrammarRule{
		{A: "S", Pre: "a", B: "S", Suf: "b"},
		{A: "S", Pre: "ab"},
	}, "S")
	if err != nil {
		t.Fatal(err)
	}
	for _, word := range []string{"ab", "aabb", "aaabbb", "abab", "ba", ""} {
		status, raw, _ := post(t, ts.Client(), ts.URL+"/v1/lincfl/recognize",
			lincflRequest{Rules: rules, Start: "S", Word: word})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		got := mustDecode[lincflResponse](t, raw)
		if want := partree.RecognizeLinear(g, []byte(word)); got.Accepted != want {
			t.Errorf("custom %q: accepted=%v, oracle %v", word, got.Accepted, want)
		}
	}
}

// TestE2EConcurrentClientsBatch floods the server with concurrent
// distinct requests and verifies (a) every response matches the oracle
// and (b) the batcher actually coalesced — fewer machine runs than jobs.
func TestE2EConcurrentClientsBatch(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxBatch:    32,
		Linger:      5 * time.Millisecond,
		MaxInflight: 512,
	})
	const clients = 192
	rng := rand.New(rand.NewSource(5))
	jobs := make([][]float64, clients)
	for i := range jobs {
		jobs[i] = randomWeights(rng, 2+rng.Intn(20))
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, raw, _ := post(t, ts.Client(), ts.URL+"/v1/huffman", codingRequest{Weights: jobs[i]})
			if status != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %s", i, status, raw)
				return
			}
			got := mustDecode[codingResponse](t, raw)
			total := 0.0
			for _, w := range jobs[i] {
				total += w
			}
			oracle := partree.HuffmanTree(jobs[i]).WeightedPathLength() / total
			if !xmath.AlmostEqual(got.AvgBits, oracle, 1e-9) {
				errs <- fmt.Errorf("client %d: avg_bits %v, oracle %v", i, got.AvgBits, oracle)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	bc := s.Snapshot().Batchers["huffman"]
	if bc.Jobs != clients {
		t.Fatalf("batcher saw %d jobs, want %d", bc.Jobs, clients)
	}
	if bc.Batches >= clients {
		t.Errorf("no coalescing: %d batches for %d concurrent jobs", bc.Batches, clients)
	}
	t.Logf("coalescing: %d jobs in %d batches (avg %.1f, max %d)",
		bc.Jobs, bc.Batches, bc.AvgBatch, bc.MaxBatch)
}

// TestE2ECacheHitAndStats verifies the cache disposition header, hit
// counters, and that /statsz surfaces PRAM phase stats.
func TestE2ECacheHitAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4})
	req := codingRequest{Weights: []float64{5, 1, 2, 9}}

	status, _, hdr := post(t, ts.Client(), ts.URL+"/v1/huffman", req)
	if status != http.StatusOK || hdr.Get("X-Partree-Cache") != "miss" {
		t.Fatalf("first request: status %d, cache %q", status, hdr.Get("X-Partree-Cache"))
	}
	// Different JSON spelling of the same vector must hit the same entry.
	resp, err := ts.Client().Post(ts.URL+"/v1/huffman", "application/json",
		bytes.NewReader([]byte(`{"weights":[5.0, 1e0, 2, 9.000]}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Partree-Cache") != "hit" {
		t.Fatalf("second request: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Partree-Cache"))
	}
	// Scaled weights (same ratios) share the canonical hash too.
	status, _, hdr = post(t, ts.Client(), ts.URL+"/v1/huffman",
		codingRequest{Weights: []float64{10, 2, 4, 18}})
	if status != http.StatusOK || hdr.Get("X-Partree-Cache") != "hit" {
		t.Fatalf("scaled request: status %d, cache %q", status, hdr.Get("X-Partree-Cache"))
	}

	resp2, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, _ := io.ReadAll(resp2.Body)
	snap := mustDecode[StatsSnapshot](t, raw)
	if snap.Cache.Hits < 2 || snap.Cache.Misses < 1 {
		t.Errorf("cache counters: %+v", snap.Cache)
	}
	if _, ok := snap.Requests["huffman"]; !ok {
		t.Fatalf("missing request counters: %s", raw)
	}
	es, ok := snap.PRAM["huffman"]
	if !ok || es.Work < 1 {
		t.Errorf("PRAM stats not surfaced: %+v", snap.PRAM)
	}
	if _, ok := es.Phases["batch.huffman"]; !ok {
		t.Errorf("missing batch.huffman phase: %+v", es.Phases)
	}
	if snap.Pool.Shards < 1 || len(snap.Pool.PerShard) != snap.Pool.Shards {
		t.Errorf("pool section malformed: %+v", snap.Pool)
	}
	var gets, hits int64
	for _, sh := range snap.Pool.PerShard {
		gets += sh.Gets
		hits += sh.Hits
		if sh.Gets > 0 && (sh.HitRate < 0 || sh.HitRate > 1 || sh.HitRate != float64(sh.Hits)/float64(sh.Gets)) {
			t.Errorf("shard hit rate inconsistent: %+v", sh)
		}
	}
	if gets == 0 {
		t.Errorf("/statsz saw no arena shard traffic: %+v", snap.Pool)
	}
}

// TestE2EValidationErrors locks the structured-400 contract.
func TestE2EValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Limits: Limits{MaxVectorLen: 8, MaxWordLen: 8}})
	type errBody struct {
		Error apiError `json:"error"`
	}
	cases := []struct {
		name string
		path string
		body string
		code string
	}{
		{"malformed json", "/v1/huffman", `{"weights":`, "bad_json"},
		{"unknown field", "/v1/huffman", `{"weighs":[1,2]}`, "bad_json"},
		{"trailing data", "/v1/huffman", `{"weights":[1,2]} extra`, "bad_json"},
		{"empty weights", "/v1/huffman", `{"weights":[]}`, "empty_input"},
		{"negative weight", "/v1/huffman", `{"weights":[1,-2]}`, "bad_weight"},
		{"nan weight", "/v1/huffman", `{"weights":[1,"x"]}`, "bad_json"},
		{"too many weights", "/v1/huffman", `{"weights":[1,1,1,1,1,1,1,1,1]}`, "too_large"},
		{"zero probability", "/v1/shannonfano", `{"weights":[0,1]}`, "bad_weight"},
		{"negative depth", "/v1/treefromdepths", `{"depths":[1,-1]}`, "bad_depth"},
		{"gap mismatch", "/v1/obst", `{"keys":[0.5],"gaps":[0.5]}`, "bad_instance"},
		{"zero mass", "/v1/obst", `{"keys":[0],"gaps":[0,0]}`, "bad_weight"},
		{"no grammar", "/v1/lincfl/recognize", `{"word":"ab"}`, "bad_grammar"},
		{"unknown stock", "/v1/lincfl/recognize", `{"grammar":"nope","word":"ab"}`, "bad_grammar"},
		{"both grammar forms", "/v1/lincfl/recognize", `{"grammar":"palindrome","rules":[{"a":"S","pre":"a"}],"start":"S","word":"a"}`, "bad_grammar"},
		{"long word", "/v1/lincfl/recognize", `{"grammar":"palindrome","word":"aaaaaaaaaaaaaaaaa"}`, "too_large"},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, raw)
			continue
		}
		got := mustDecode[errBody](t, raw)
		if got.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q (%s)", tc.name, got.Error.Code, tc.code, got.Error.Message)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/huffman")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/huffman: status %d, want 405", resp.StatusCode)
	}
}

// TestE2ELoadShedding saturates the admission limiter with lingering
// requests and verifies excess load is shed fast with 429 + Retry-After
// while /healthz stays responsive, and that the lingering requests still
// complete.
func TestE2ELoadShedding(t *testing.T) {
	const slots = 4
	s, ts := newTestServer(t, Config{
		MaxBatch:       64, // larger than the request count: batches cut on linger only
		Linger:         400 * time.Millisecond,
		MaxInflight:    slots,
		RequestTimeout: 5 * time.Second,
	})

	var wg sync.WaitGroup
	statuses := make([]int, slots)
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct vectors: no single-flight collapse, each holds a slot.
			status, _, _ := post(t, ts.Client(), ts.URL+"/v1/huffman",
				codingRequest{Weights: []float64{1, 2, float64(i + 3)}})
			statuses[i] = status
		}(i)
	}
	// Wait until all slots are held (the requests are parked in the
	// lingering batch).
	deadline := time.Now().Add(2 * time.Second)
	for len(s.inflight) < slots {
		if time.Now().After(deadline) {
			t.Fatalf("limiter never saturated: %d/%d slots", len(s.inflight), slots)
		}
		time.Sleep(time.Millisecond)
	}

	shedStart := time.Now()
	resp, err := ts.Client().Post(ts.URL+"/v1/huffman", "application/json",
		bytes.NewReader([]byte(`{"weights":[9,9,9]}`)))
	if err != nil {
		t.Fatal(err)
	}
	shedLatency := time.Since(shedStart)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Shedding must be immediate — far inside the request deadline, not
	// queued behind the lingering batch.
	if shedLatency > time.Second {
		t.Errorf("shed took %v; must answer within the request deadline", shedLatency)
	}

	hStart := time.Now()
	hResp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hResp.Body)
	hResp.Body.Close()
	if hResp.StatusCode != http.StatusOK {
		t.Errorf("healthz under saturation: status %d", hResp.StatusCode)
	}
	if d := time.Since(hStart); d > time.Second {
		t.Errorf("healthz took %v under saturation", d)
	}

	wg.Wait() // lingering requests drain normally
	for i, status := range statuses {
		if status != http.StatusOK {
			t.Errorf("lingering request %d: status %d", i, status)
		}
	}
	if got := s.shed.Load(); got < 1 {
		t.Errorf("shed counter = %d, want ≥ 1", got)
	}
}

// TestE2EGracefulDrain closes the server while requests are parked in a
// lingering batch: they must complete successfully (drain cut), and new
// work must be refused with 503.
func TestE2EGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxBatch: 64,
		Linger:   2 * time.Second, // longer than the test: only a drain can cut
	})
	const n = 6
	// Count the jobs the huffman batcher has accepted: a request holds its
	// limiter slot before its body is even parsed, so a full limiter does
	// not yet mean a queued job, and a Close that lands before Submit
	// rightly answers 503.
	var queued atomic.Int64
	faultpoint.Set("batcher.submit", func(args ...any) {
		if name, _ := args[0].(string); name == "huffman" {
			queued.Add(1)
		}
	})
	t.Cleanup(faultpoint.Reset)
	var wg sync.WaitGroup
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, _ := post(t, ts.Client(), ts.URL+"/v1/huffman",
				codingRequest{Weights: []float64{1, 2, float64(i + 3)}})
			statuses[i] = status
		}(i)
	}
	// Wait until the batcher holds all n jobs (parked in the lingering
	// batch), then close.
	deadline := time.Now().Add(5 * time.Second)
	for queued.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs reached the batcher", queued.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	s.Close()
	if d := time.Since(start); d > time.Second {
		t.Errorf("drain took %v; should cut lingering batches immediately", d)
	}
	wg.Wait()
	for i, status := range statuses {
		if status != http.StatusOK {
			t.Errorf("drained request %d: status %d", i, status)
		}
	}

	status, raw, _ := post(t, ts.Client(), ts.URL+"/v1/huffman", codingRequest{Weights: []float64{7, 7}})
	if status != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown request: status %d, want 503 (%s)", status, raw)
	}
}

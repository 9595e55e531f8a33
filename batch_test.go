package partree

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"partree/internal/shannonfano"
	"partree/internal/workload"
	"partree/internal/xmath"
)

func randomJobs(rng *rand.Rand, nJobs, maxLen int) [][]float64 {
	jobs := make([][]float64, nJobs)
	for i := range jobs {
		n := 1 + rng.Intn(maxLen)
		w := make([]float64, n)
		for k := range w {
			w[k] = 1 + rng.Float64()*99
		}
		jobs[i] = w
	}
	return jobs
}

func TestHuffmanBatchMatchesSingleShot(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	jobs := randomJobs(rng, 200, 24)
	res, stats := HuffmanBatch(jobs, Options{Workers: 4})
	if len(res) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(res), len(jobs))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		want := HuffmanCost(jobs[i])
		if !xmath.AlmostEqual(r.Cost, want, 1e-9) {
			t.Errorf("job %d: batch cost %v, oracle %v", i, r.Cost, want)
		}
		if len(r.Lengths) != len(jobs[i]) || len(r.Codes) != len(jobs[i]) {
			t.Errorf("job %d: %d lengths / %d codes for %d symbols",
				i, len(r.Lengths), len(r.Codes), len(jobs[i]))
		}
	}
	// The whole batch must be one parallel statement (plus nothing else).
	if stats.Work != int64(len(jobs)) {
		t.Errorf("batch work = %d, want %d (one virtual processor per job)", stats.Work, len(jobs))
	}
}

// batchEngine is one …Batch entry point with a generator of n small valid
// jobs. Its phase label is batch.<label> and its per-job fault point
// batch.<label>.job; the table pins both names for all five engines.
type batchEngine struct {
	label string
	plain func(n int, o Options) Stats
	ctx   func(ctx context.Context, n int, o Options) (nOut int, st Stats, err error)
}

func batchEngines() []batchEngine {
	weights := func(n int) [][]float64 {
		jobs := make([][]float64, n)
		for i := range jobs {
			jobs[i] = []float64{1, 2, 3, float64(i + 1)}
		}
		return jobs
	}
	probs := func(n int) [][]float64 {
		jobs := make([][]float64, n)
		for i := range jobs {
			jobs[i] = []float64{0.25, 0.25, 0.5}
		}
		return jobs
	}
	depths := func(n int) [][]int {
		jobs := make([][]int, n)
		for i := range jobs {
			jobs[i] = []int{1, 2, 2}
		}
		return jobs
	}
	bsts := func(n int) []*BSTInstance {
		jobs := make([]*BSTInstance, n)
		for i := range jobs {
			jobs[i], _ = NewBSTInstance([]float64{0.2, 0.2}, []float64{0.2, 0.2, 0.2})
		}
		return jobs
	}
	words := func(n int) []LinCFLBatchJob {
		jobs := make([]LinCFLBatchJob, n)
		for i := range jobs {
			jobs[i] = LinCFLBatchJob{Grammar: PalindromeGrammar(), Word: []byte("abcba")}
		}
		return jobs
	}
	return []batchEngine{
		{"huffman",
			func(n int, o Options) Stats { _, st := HuffmanBatch(weights(n), o); return st },
			func(ctx context.Context, n int, o Options) (int, Stats, error) {
				out, st, err := HuffmanBatchContext(ctx, weights(n), o)
				return len(out), st, err
			}},
		{"shannonfano",
			func(n int, o Options) Stats { _, st := ShannonFanoBatch(probs(n), o); return st },
			func(ctx context.Context, n int, o Options) (int, Stats, error) {
				out, st, err := ShannonFanoBatchContext(ctx, probs(n), o)
				return len(out), st, err
			}},
		{"leafpattern",
			func(n int, o Options) Stats { _, st := TreeFromDepthsBatch(depths(n), o); return st },
			func(ctx context.Context, n int, o Options) (int, Stats, error) {
				out, st, err := TreeFromDepthsBatchContext(ctx, depths(n), o)
				return len(out), st, err
			}},
		{"obst",
			func(n int, o Options) Stats { _, st := OptimalBSTBatch(bsts(n), o); return st },
			func(ctx context.Context, n int, o Options) (int, Stats, error) {
				out, st, err := OptimalBSTBatchContext(ctx, bsts(n), o)
				return len(out), st, err
			}},
		{"lincfl",
			func(n int, o Options) Stats { _, st := RecognizeLinearBatch(words(n), o); return st },
			func(ctx context.Context, n int, o Options) (int, Stats, error) {
				out, st, err := RecognizeLinearBatchContext(ctx, words(n), o)
				return len(out), st, err
			}},
	}
}

// TestBatchPhaseLabels: every batch entry point, plain and under a
// context, runs its jobs as one statement under the batch.<label> phase.
func TestBatchPhaseLabels(t *testing.T) {
	const n = 12
	for _, e := range batchEngines() {
		t.Run(e.label, func(t *testing.T) {
			nOut, ctxStats, err := e.ctx(context.Background(), n, Options{Workers: 2})
			if err != nil || nOut != n {
				t.Fatalf("context variant: %d results, err %v; want %d, nil", nOut, err, n)
			}
			for variant, st := range map[string]Stats{"plain": e.plain(n, Options{Workers: 2}), "context": ctxStats} {
				ps, ok := st.Phases["batch."+e.label]
				if !ok {
					t.Errorf("%s: missing batch.%s phase; got %v", variant, e.label, st.Phases)
					continue
				}
				if ps.Work != n || st.Work != n {
					t.Errorf("%s: phase work %d, total work %d; want %d (one virtual processor per job)", variant, ps.Work, st.Work, n)
				}
			}
		})
	}
}

func TestHuffmanBatchEmptyJob(t *testing.T) {
	res, _ := HuffmanBatch([][]float64{{1, 2}, {}})
	if res[0].Err != nil {
		t.Errorf("non-empty job errored: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, ErrEmptyJob) {
		t.Errorf("empty job err = %v, want ErrEmptyJob", res[1].Err)
	}
}

func TestShannonFanoBatchMatchesOracle(t *testing.T) {
	jobs := [][]float64{
		{0.5, 0.25, 0.125, 0.125},
		workload.English(),
		workload.Geometric(32, 0.7),
		{1e-9, 1 - 1e-9}, // extreme skew
	}
	res, _ := ShannonFanoBatch(jobs)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		want := shannonfano.Lengths(jobs[i])
		for k := range want {
			if r.Lengths[k] != want[k] {
				t.Errorf("job %d symbol %d: length %d, oracle %d", i, k, r.Lengths[k], want[k])
			}
		}
	}
}

func TestShannonFanoBatchRejectsBadProbabilities(t *testing.T) {
	res, _ := ShannonFanoBatch([][]float64{{0.5, 0.5}, {0.5, 1.5}, {0, 1}, {}})
	if res[0].Err != nil {
		t.Errorf("valid job errored: %v", res[0].Err)
	}
	for i := 1; i < 4; i++ {
		if res[i].Err == nil {
			t.Errorf("job %d: invalid probabilities accepted", i)
		}
	}
}

func TestTreeFromDepthsBatch(t *testing.T) {
	jobs := [][]int{
		{2, 2, 2, 2},
		{1, 2, 3, 3},
		{1, 1, 1}, // over-full: unrealizable
		{3, 3, 1}, // realizable (Kraft gap is fine for non-monotone too)
		{0},       // single leaf at the root
	}
	res, _ := TreeFromDepthsBatch(jobs)
	for i, r := range res {
		realizable := DepthsRealizable(jobs[i])
		if (r.Err == nil) != realizable {
			t.Errorf("job %d: err=%v but oracle realizable=%v", i, r.Err, realizable)
			continue
		}
		if r.Err != nil {
			continue
		}
		got := r.Tree.LeafDepths()
		if len(got) != len(jobs[i]) {
			t.Fatalf("job %d: %d leaves, want %d", i, len(got), len(jobs[i]))
		}
		for k := range got {
			if got[k] != jobs[i][k] {
				t.Errorf("job %d leaf %d: depth %d, want %d", i, k, got[k], jobs[i][k])
			}
		}
	}
}

func TestOptimalBSTBatchMatchesKnuth(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var jobs []*BSTInstance
	for j := 0; j < 20; j++ {
		n := 1 + rng.Intn(12)
		beta := make([]float64, n)
		alpha := make([]float64, n+1)
		for i := range beta {
			beta[i] = rng.Float64()
		}
		for i := range alpha {
			alpha[i] = rng.Float64()
		}
		in, err := NewBSTInstance(beta, alpha)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, in)
	}
	res, _ := OptimalBSTBatch(jobs, Options{Workers: 4})
	for i, r := range res {
		want, _ := OptimalBST(jobs[i])
		if !xmath.AlmostEqual(r.Cost, want, 1e-9) {
			t.Errorf("job %d: batch cost %v, Knuth %v", i, r.Cost, want)
		}
		if err := jobs[i].Check(r.Tree); err != nil {
			t.Errorf("job %d: malformed tree: %v", i, err)
		}
	}
}

func TestRecognizeLinearBatchMixedGrammars(t *testing.T) {
	pal := PalindromeGrammar()
	g2, err := NewLinearGrammar([]GrammarRule{
		{A: "S", Pre: "a", B: "S", Suf: "b"},
		{A: "S", Pre: "ab"},
	}, "S")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []LinCFLBatchJob{
		{Grammar: pal, Word: []byte("abcba")},
		{Grammar: pal, Word: []byte("abcab")},
		{Grammar: g2, Word: []byte("aabb")},
		{Grammar: g2, Word: []byte("abab")},
		{Grammar: pal, Word: nil},
	}
	got, _ := RecognizeLinearBatch(jobs, Options{Workers: 2})
	for i, j := range jobs {
		want := RecognizeLinear(j.Grammar, j.Word)
		if got[i] != want {
			t.Errorf("job %d: batch %v, oracle %v", i, got[i], want)
		}
	}
}

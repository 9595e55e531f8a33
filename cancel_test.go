package partree

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"partree/internal/faultpoint"
	"partree/internal/obst"
	"partree/internal/pool"
	"partree/internal/pram"
)

// --- fault-injection helpers ---

// cancelAt installs a hook at the named fault point that cancels the
// returned context on its nth hit (1-based). Hooks and the context are
// torn down with the test.
func cancelAt(t *testing.T, point string, nth int) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var hits atomic.Int64
	faultpoint.Set(point, func(...any) {
		if hits.Add(1) == int64(nth) {
			cancel()
		}
	})
	t.Cleanup(func() {
		faultpoint.Reset()
		cancel()
	})
	return ctx
}

// checkAborted asserts the fault-injected call unwound with
// context.Canceled and handed every pooled slab back to the arena:
// the arena's get/put deltas across the call must match exactly.
func checkAborted(t *testing.T, before pool.Stats, err error) {
	t.Helper()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	after := pool.Snapshot()
	if dg, dp := after.Gets-before.Gets, after.Puts-before.Puts; dg != dp {
		t.Errorf("pool ledger unbalanced after abort: %d gets vs %d puts", dg, dp)
	}
}

// checkGoroutines polls until the goroutine count returns to (near) the
// baseline, failing if workers leaked past the abort.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d, baseline %d — workers leaked after abort", runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func sortedWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(i + 1)
	}
	return w
}

// concaveMat is the Monge matrix M[i][j] = -i·j (quadrangle condition
// holds with equality slack i(l-j) ≤ k(l-j)).
func concaveMat(r, c int) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
		for j := range m[i] {
			m[i][j] = -float64(i * j)
		}
	}
	return m
}

// --- per-kernel-family fault injection ---

func TestFaultInjectionHuffmanParallel(t *testing.T) {
	for _, point := range []string{"hufpar.height.level", "hufpar.spine.level", "monge.cutpar.level"} {
		t.Run(point, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := cancelAt(t, point, 2)
			before := pool.Snapshot()
			res, err := HuffmanParallelContext(ctx, sortedWeights(64))
			if res != nil {
				t.Errorf("result %v on aborted call, want nil", res)
			}
			checkAborted(t, before, err)
			checkGoroutines(t, base)
		})
	}
}

func TestFaultInjectionHuffmanHeightLimited(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := cancelAt(t, "hufpar.height.level", 3)
	before := pool.Snapshot()
	tr, _, err := HuffmanHeightLimitedContext(ctx, sortedWeights(48), 10)
	if tr != nil {
		t.Errorf("tree %v on aborted call, want nil", tr)
	}
	checkAborted(t, before, err)
	checkGoroutines(t, base)
}

func TestFaultInjectionApproxBST(t *testing.T) {
	n := 40
	keys := make([]float64, n)
	gaps := make([]float64, n+1)
	for i := range keys {
		keys[i] = 1 / float64(2*n+1)
	}
	for i := range gaps {
		gaps[i] = 1 / float64(2*n+1)
	}
	in, err := NewBSTInstance(keys, gaps)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx := cancelAt(t, "obst.approx.level", 2)
	before := pool.Snapshot()
	res, err := ApproxBSTContext(ctx, in, 0.01)
	if res != nil {
		t.Errorf("result %v on aborted call, want nil", res)
	}
	checkAborted(t, before, err)
	checkGoroutines(t, base)
}

// TestFaultInjectionOBSTHeightBounded drives the internal height-bounded
// kernel directly (it has no façade) through the machine's Run/SetContext
// seam.
func TestFaultInjectionOBSTHeightBounded(t *testing.T) {
	n := 24
	keys := make([]float64, n)
	gaps := make([]float64, n+1)
	for i := range keys {
		keys[i] = 1 / float64(2*n+1)
	}
	for i := range gaps {
		gaps[i] = 1 / float64(2*n+1)
	}
	in, err := obst.NewInstance(keys, gaps)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx := cancelAt(t, "obst.height.level", 2)
	before := pool.Snapshot()
	m := pram.New()
	m.SetContext(ctx)
	runErr := m.Run(func() {
		_, _, _ = obst.HeightBounded(m, in, 8)
	})
	checkAborted(t, before, runErr)
	checkGoroutines(t, base)
}

func TestFaultInjectionConcaveMultiply(t *testing.T) {
	a := concaveMat(48, 48)
	if !IsConcave(a) {
		t.Fatal("test matrix is not concave")
	}
	base := runtime.NumGoroutine()
	ctx := cancelAt(t, "monge.cutpar.level", 1)
	before := pool.Snapshot()
	res, err := ConcaveMultiplyContext(ctx, a, a)
	if res != nil {
		t.Errorf("result on aborted call, want nil")
	}
	checkAborted(t, before, err)
	checkGoroutines(t, base)
}

func TestFaultInjectionRecognizeLinear(t *testing.T) {
	g := PalindromeGrammar()
	word := make([]byte, 65)
	for i := range word {
		word[i] = 'a'
	}
	word[32] = 'c'
	for i := 0; i < 32; i++ {
		word[64-i] = word[i]
	}
	for _, tc := range []struct {
		point string
		nth   int
	}{
		{"lincfl.tri", 4},
		{"lincfl.rect", 3},
	} {
		t.Run(tc.point, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := cancelAt(t, tc.point, tc.nth)
			before := pool.Snapshot()
			res, err := RecognizeLinearParallelContext(ctx, g, word)
			if res != nil {
				t.Errorf("result on aborted call, want nil")
			}
			checkAborted(t, before, err)
			checkGoroutines(t, base)
		})
	}
}

// TestFaultInjectionDeriveLinear aborts inside the derivation pass, whose
// region table keeps every level's matrices for the walk in one plain
// slab — the abort must leave the arena's gets and puts balanced.
func TestFaultInjectionDeriveLinear(t *testing.T) {
	g := PalindromeGrammar()
	word := []byte("aabacabaabacabaabacabaabacabaaczaabacabaabacaba"[:33])
	word[16] = 'c'
	base := runtime.NumGoroutine()
	ctx := cancelAt(t, "lincfl.tri", 6)
	before := pool.Snapshot()
	_, ok, err := DeriveLinearParallelContext(ctx, g, word)
	if ok {
		t.Errorf("ok on aborted call, want false")
	}
	checkAborted(t, before, err)
	checkGoroutines(t, base)
}

func TestFaultInjectionShannonFano(t *testing.T) {
	probs := make([]float64, 64)
	for i := range probs {
		probs[i] = 1.0 / 64
	}
	base := runtime.NumGoroutine()
	ctx := cancelAt(t, "shannonfano.build", 1)
	before := pool.Snapshot()
	res, err := ShannonFanoContext(ctx, probs)
	if res != nil {
		t.Errorf("result on aborted call, want nil")
	}
	checkAborted(t, before, err)
	checkGoroutines(t, base)
}

func TestFaultInjectionTreeFromMonotoneDepths(t *testing.T) {
	depths := make([]int, 64)
	for i := range depths {
		depths[i] = 6
	}
	base := runtime.NumGoroutine()
	ctx := cancelAt(t, "leafpattern.monotone", 1)
	before := pool.Snapshot()
	tr, _, err := TreeFromMonotoneDepthsContext(ctx, depths)
	if tr != nil {
		t.Errorf("tree on aborted call, want nil")
	}
	checkAborted(t, before, err)
	checkGoroutines(t, base)
}

// TestFaultInjectionBatch cancels mid-batch at each engine's per-job
// fault point. Grain 1 makes every job boundary a checkpoint, so the
// statement aborts instead of completing with silently partial results.
func TestFaultInjectionBatch(t *testing.T) {
	for _, e := range batchEngines() {
		t.Run(e.label, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := cancelAt(t, "batch."+e.label+".job", 3)
			before := pool.Snapshot()
			nOut, _, err := e.ctx(ctx, 16, Options{Workers: 2, Grain: 1})
			if nOut != 0 {
				t.Errorf("%d results on aborted batch, want none", nOut)
			}
			checkAborted(t, before, err)
			checkGoroutines(t, base)
		})
	}
}

// TestCancelBatchDefaultGrainStillAborts pins the serial-path fix: even
// when the whole batch fits one grain chunk (default grain, no worker
// fan-out), a cancellation during the statement must surface as an error,
// not as a silently truncated result set.
func TestCancelBatchDefaultGrainStillAborts(t *testing.T) {
	for _, e := range batchEngines() {
		t.Run(e.label, func(t *testing.T) {
			ctx := cancelAt(t, "batch."+e.label+".job", 2)
			nOut, _, err := e.ctx(ctx, 8, Options{})
			if err == nil {
				t.Fatalf("batch completed with %d results, want abort", nOut)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// --- context-variant contract tests ---

// TestCancelPreCanceledFacadeCalls: an already-dead context aborts before
// any parallel work on every Context entry point.
func TestCancelPreCanceledFacadeCalls(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := sortedWeights(16)
	probs := make([]float64, 16)
	for i := range probs {
		probs[i] = 1.0 / 16
	}
	depths := []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}
	g := PalindromeGrammar()
	keys := []float64{0.2, 0.2}
	gaps := []float64{0.2, 0.2, 0.2}
	in, _ := NewBSTInstance(keys, gaps)

	calls := map[string]func() error{
		"HuffmanParallelContext": func() error { _, err := HuffmanParallelContext(ctx, w); return err },
		"HuffmanRakeCompressCostContext": func() error {
			_, _, err := HuffmanRakeCompressCostContext(ctx, w)
			return err
		},
		"HuffmanHeightLimitedContext": func() error { _, _, err := HuffmanHeightLimitedContext(ctx, w, 8); return err },
		"ShannonFanoContext":          func() error { _, err := ShannonFanoContext(ctx, probs); return err },
		"ApproxBSTContext":            func() error { _, err := ApproxBSTContext(ctx, in, 0.05); return err },
		"RecognizeLinearParallelContext": func() error {
			_, err := RecognizeLinearParallelContext(ctx, g, []byte("aca"))
			return err
		},
		"DeriveLinearParallelContext": func() error { _, _, err := DeriveLinearParallelContext(ctx, g, []byte("aca")); return err },
		"TreeFromMonotoneDepthsContext": func() error {
			_, _, err := TreeFromMonotoneDepthsContext(ctx, depths)
			return err
		},
		"ConcaveMultiplyContext": func() error { _, err := ConcaveMultiplyContext(ctx, concaveMat(8, 8), concaveMat(8, 8)); return err },
		"HuffmanBatchContext":    func() error { _, _, err := HuffmanBatchContext(ctx, [][]float64{w}); return err },
		"ShannonFanoBatchContext": func() error {
			_, _, err := ShannonFanoBatchContext(ctx, [][]float64{probs})
			return err
		},
		"TreeFromDepthsBatchContext": func() error { _, _, err := TreeFromDepthsBatchContext(ctx, [][]int{depths}); return err },
		"OptimalBSTBatchContext":     func() error { _, _, err := OptimalBSTBatchContext(ctx, []*BSTInstance{in}); return err },
		"RecognizeLinearBatchContext": func() error {
			_, _, err := RecognizeLinearBatchContext(ctx, []LinCFLBatchJob{{Grammar: g, Word: []byte("aca")}})
			return err
		},
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestCancelDeadlineExceededSurfaces: a deadline (as opposed to explicit
// cancellation) surfaces as DeadlineExceeded through the same machinery.
func TestCancelDeadlineExceededSurfaces(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := HuffmanParallelContext(ctx, sortedWeights(32))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelBackgroundContextMatchesPlainVariant: an uncancelable context
// costs nothing and the Context variants return the same answers as their
// plain counterparts.
func TestCancelBackgroundContextMatchesPlainVariant(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	w := make([]float64, 33)
	for i := range w {
		w[i] = 1 + rng.Float64()*99
	}

	got, err := HuffmanParallelContext(ctx, w)
	if err != nil {
		t.Fatalf("HuffmanParallelContext: %v", err)
	}
	want := HuffmanParallel(w)
	if got.Cost != want.Cost {
		t.Errorf("cost %v != plain %v", got.Cost, want.Cost)
	}

	a := concaveMat(17, 17)
	gotM, err := ConcaveMultiplyContext(ctx, a, a)
	if err != nil {
		t.Fatalf("ConcaveMultiplyContext: %v", err)
	}
	wantP, _ := MinPlusMultiply(a, a)
	for i := range wantP {
		for j := range wantP[i] {
			if gotM.Product[i][j] != wantP[i][j] {
				t.Fatalf("product[%d][%d] = %v, want %v", i, j, gotM.Product[i][j], wantP[i][j])
			}
		}
	}

	jobs := [][]float64{{3, 1, 4, 1, 5}, {9, 2, 6}, {5, 3, 5}}
	gotB, _, err := HuffmanBatchContext(ctx, jobs)
	if err != nil {
		t.Fatalf("HuffmanBatchContext: %v", err)
	}
	wantB, _ := HuffmanBatch(jobs)
	for i := range jobs {
		if gotB[i].Cost != wantB[i].Cost {
			t.Errorf("job %d cost %v != plain %v", i, gotB[i].Cost, wantB[i].Cost)
		}
	}
}

// TestCancelForeignPanicPassesThrough: Run converts only cancellation
// aborts; an engine bug (a genuine panic) still crashes the test loudly.
func TestCancelForeignPanicPassesThrough(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic swallowed by Run")
		}
	}()
	m := pram.New()
	m.SetContext(context.Background())
	_ = m.Run(func() { panic("engine bug") })
}

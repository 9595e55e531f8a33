package partree

import (
	"context"
	"errors"
	"fmt"
	"math"

	"partree/internal/faultpoint"
	"partree/internal/huffman"
	"partree/internal/leafpattern"
	"partree/internal/lincfl"
	"partree/internal/obst"
	"partree/internal/shannonfano"
)

// Batch-friendly entry points. The paper's parallel algorithms attack one
// large instance; real coding workloads are the opposite shape — millions
// of small weight vectors, each far too small to benefit from
// instance-level parallelism. These entry points batch many small jobs
// onto ONE simulated-PRAM machine run: a single parallel statement over
// the jobs, each job solved by the corresponding serial oracle inside the
// statement body. The runtime spreads the jobs across workers (jobs are
// independent, so the For contract holds), and the returned Stats
// charges the whole batch as one statement — the cost model the partreed
// service's request batcher is built on.

// ErrEmptyJob is reported (per job, not per batch) when a job carries an
// empty input vector.
var ErrEmptyJob = errors.New("partree: empty batch job")

// HuffmanBatchResult is one job's output from HuffmanBatch.
type HuffmanBatchResult struct {
	// Lengths[i] is symbol i's optimal code length; Codes[i] the canonical
	// code word.
	Lengths []int
	Codes   []Codeword
	// Cost is Σ wᵢ·lᵢ in the job's own weight scale.
	Cost float64
	// Err is non-nil when the job was empty or its optimal code is not
	// representable (a code word would exceed 63 bits).
	Err error
}

// HuffmanBatch solves many independent Huffman coding jobs in one
// parallel statement on one machine, each with the sequential O(n log n)
// oracle. Results are positionally aligned with jobs.
func HuffmanBatch(jobs [][]float64, opts ...Options) ([]HuffmanBatchResult, Stats) {
	out, st, _ := HuffmanBatchContext(context.Background(), jobs, opts...)
	return out, st
}

// HuffmanBatchContext is HuffmanBatch under a context: cancelling ctx
// aborts the batch at the next checkpoint (job boundaries included) and
// returns (nil, Stats, ctx.Err()). Jobs that already ran are discarded —
// a batch is one statement, not a resumable stream.
func HuffmanBatchContext(ctx context.Context, jobs [][]float64, opts ...Options) ([]HuffmanBatchResult, Stats, error) {
	return runBatch(ctx, "batch.huffman", jobs, opts, huffmanJob)
}

func huffmanJob(w []float64) HuffmanBatchResult {
	if len(w) == 0 {
		return HuffmanBatchResult{Err: ErrEmptyJob}
	}
	t := HuffmanTree(w)
	lengths := huffman.CodeLengths(t, len(w))
	codes, err := huffman.Canonical(lengths)
	if err != nil {
		return HuffmanBatchResult{Err: err}
	}
	cost := 0.0
	for k, l := range lengths {
		cost += w[k] * float64(l)
	}
	return HuffmanBatchResult{Lengths: lengths, Codes: codes, Cost: cost}
}

// ShannonFanoBatchResult is one job's output from ShannonFanoBatch.
type ShannonFanoBatchResult struct {
	Lengths []int
	Codes   []Codeword
	// AverageLength is Σ pᵢ·lᵢ.
	AverageLength float64
	Err           error
}

// ShannonFanoBatch computes Shannon–Fano codes (lᵢ = ⌈log₂ 1/pᵢ⌉, Section
// 7.3) for many probability vectors in one parallel statement. Every
// entry of every job must lie in (0,1]; violating jobs get a per-job Err
// rather than poisoning the batch.
func ShannonFanoBatch(jobs [][]float64, opts ...Options) ([]ShannonFanoBatchResult, Stats) {
	out, st, _ := ShannonFanoBatchContext(context.Background(), jobs, opts...)
	return out, st
}

// ShannonFanoBatchContext is ShannonFanoBatch under a context; see
// HuffmanBatchContext for the cancellation contract.
func ShannonFanoBatchContext(ctx context.Context, jobs [][]float64, opts ...Options) ([]ShannonFanoBatchResult, Stats, error) {
	return runBatch(ctx, "batch.shannonfano", jobs, opts, shannonFanoJob)
}

func shannonFanoJob(p []float64) ShannonFanoBatchResult {
	if len(p) == 0 {
		return ShannonFanoBatchResult{Err: ErrEmptyJob}
	}
	for k, v := range p {
		if !(v > 0 && v <= 1) || math.IsNaN(v) {
			return ShannonFanoBatchResult{Err: fmt.Errorf("partree: probability %v at %d outside (0,1]", v, k)}
		}
	}
	lengths := shannonfano.Lengths(p)
	codes, err := huffman.Canonical(lengths)
	if err != nil {
		return ShannonFanoBatchResult{Err: err}
	}
	avg := 0.0
	for k, l := range lengths {
		avg += p[k] * float64(l)
	}
	return ShannonFanoBatchResult{Lengths: lengths, Codes: codes, AverageLength: avg}
}

// PatternBatchResult is one job's output from TreeFromDepthsBatch.
type PatternBatchResult struct {
	// Tree realizes the job's depth pattern; nil when Err is set.
	Tree *Tree
	// Err is ErrNoTree (possibly wrapped) for unrealizable patterns, or a
	// validation error.
	Err error
}

// TreeFromDepthsBatch solves many tree-construction jobs (Definition 1.1)
// in one parallel statement, each with the sequential greedy packing
// oracle.
func TreeFromDepthsBatch(jobs [][]int, opts ...Options) ([]PatternBatchResult, Stats) {
	out, st, _ := TreeFromDepthsBatchContext(context.Background(), jobs, opts...)
	return out, st
}

// TreeFromDepthsBatchContext is TreeFromDepthsBatch under a context; see
// HuffmanBatchContext for the cancellation contract.
func TreeFromDepthsBatchContext(ctx context.Context, jobs [][]int, opts ...Options) ([]PatternBatchResult, Stats, error) {
	return runBatch(ctx, "batch.leafpattern", jobs, opts, func(depths []int) PatternBatchResult {
		t, err := leafpattern.Greedy(depths)
		return PatternBatchResult{Tree: t, Err: err}
	})
}

// BSTBatchResult is one job's output from OptimalBSTBatch.
type BSTBatchResult struct {
	// Cost is the optimal weighted path length; Tree an optimal search
	// tree (internal nodes carry key indices, leaves gap indices).
	Cost float64
	Tree *Tree
}

// OptimalBSTBatch solves many optimal-binary-search-tree instances in one
// parallel statement, each with Knuth's exact O(n²) dynamic program.
// Instances must come from NewBSTInstance.
func OptimalBSTBatch(jobs []*BSTInstance, opts ...Options) ([]BSTBatchResult, Stats) {
	out, st, _ := OptimalBSTBatchContext(context.Background(), jobs, opts...)
	return out, st
}

// OptimalBSTBatchContext is OptimalBSTBatch under a context; see
// HuffmanBatchContext for the cancellation contract.
func OptimalBSTBatchContext(ctx context.Context, jobs []*BSTInstance, opts ...Options) ([]BSTBatchResult, Stats, error) {
	return runBatch(ctx, "batch.obst", jobs, opts, func(in *BSTInstance) BSTBatchResult {
		cost, t := obst.Knuth(in)
		return BSTBatchResult{Cost: cost, Tree: t}
	})
}

// LinCFLBatchJob is one recognition query: is Word in L(Grammar)?
type LinCFLBatchJob struct {
	Grammar *LinearGrammar
	Word    []byte
}

// RecognizeLinearBatch answers many membership queries in one parallel
// statement, each with the quadratic sequential dynamic program. Jobs may
// mix grammars freely.
func RecognizeLinearBatch(jobs []LinCFLBatchJob, opts ...Options) ([]bool, Stats) {
	out, st, _ := RecognizeLinearBatchContext(context.Background(), jobs, opts...)
	return out, st
}

// RecognizeLinearBatchContext is RecognizeLinearBatch under a context;
// see HuffmanBatchContext for the cancellation contract.
func RecognizeLinearBatchContext(ctx context.Context, jobs []LinCFLBatchJob, opts ...Options) ([]bool, Stats, error) {
	return runBatch(ctx, "batch.lincfl", jobs, opts, func(j LinCFLBatchJob) bool {
		return lincfl.Sequential(j.Grammar, j.Word)
	})
}

// runBatch is every batch entry point: one parallel statement under the
// phase label, one virtual processor per job, each solved by solve. The
// per-job fault point is "<phase>.job". A context with no Done channel
// installs nothing, so the plain entry points call it with
// context.Background() at no extra cost.
func runBatch[J, R any](ctx context.Context, phase string, jobs []J, opts []Options, solve func(J) R) ([]R, Stats, error) {
	m, release := firstOption(opts).acquireContext(ctx)
	defer release()
	var out []R
	err := m.Run(func() {
		out = make([]R, len(jobs))
		restore := m.Phase(phase)
		m.For(len(jobs), func(i int) {
			if m.Canceled() {
				return
			}
			if faultpoint.Armed() {
				faultpoint.Hit(phase+".job", i)
			}
			out[i] = solve(jobs[i])
		})
		restore()
	})
	if err != nil {
		return nil, statsOf(m), err
	}
	return out, statsOf(m), nil
}

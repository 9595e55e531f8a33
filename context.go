package partree

import (
	"context"

	"partree/internal/hufpar"
	"partree/internal/leafpattern"
	"partree/internal/lincfl"
	"partree/internal/obst"
	"partree/internal/shannonfano"
)

// Context-accepting variants of the parallel entry points. Each runs the
// same algorithm as its counterpart but installs ctx on the simulated
// PRAM: the orchestrator polls the context at every parallel-statement
// boundary (and between serial grain-chunks), so cancelling ctx aborts
// the call within one checkpoint interval. On abort the error is
// ctx.Err() — context.Canceled or context.DeadlineExceeded — every
// pooled workspace the kernels held is returned to the arena, and no
// goroutines are leaked (workers observe the same cancellation before
// each chunk claim and park at the statement barrier as usual).
//
// A context with no Done channel (context.Background, context.TODO)
// installs nothing, and Run re-raises every panic except its own abort,
// so each non-Context variant is its twin under context.Background():
// the result is built here, once. Aborted statements book no
// Steps/Work, so Stats from an aborted call reflect only the statements
// that completed.
//
// A context carrying a trace recorder (TraceContext) arms per-call
// tracing exactly as Options.Trace does; Options.Trace wins when both
// are set.

// HuffmanParallelContext is HuffmanParallel under a context. On
// cancellation it returns (nil, ctx.Err()).
func HuffmanParallelContext(ctx context.Context, freqs []float64, opts ...Options) (*HuffmanParallelResult, error) {
	m, release := firstOption(opts).acquireContext(ctx)
	defer release()
	var res *HuffmanParallelResult
	err := m.Run(func() { res = huffmanParallelOn(m, freqs) })
	if err != nil {
		return nil, err
	}
	return res, nil
}

// HuffmanRakeCompressCostContext is HuffmanRakeCompressCost under a
// context.
func HuffmanRakeCompressCostContext(ctx context.Context, freqs []float64, opts ...Options) (float64, Stats, error) {
	m, release := firstOption(opts).acquireContext(ctx)
	defer release()
	var c float64
	err := m.Run(func() { c = hufpar.CostRakeCompress(m, freqs) })
	if err != nil {
		return 0, statsOf(m), err
	}
	return c, statsOf(m), nil
}

// HuffmanHeightLimitedContext is HuffmanHeightLimited under a context.
// The returned error is either the kernel's infeasibility error or
// ctx.Err() on cancellation.
func HuffmanHeightLimitedContext(ctx context.Context, freqs []float64, maxHeight int, opts ...Options) (*Tree, float64, error) {
	m, release := firstOption(opts).acquireContext(ctx)
	defer release()
	var (
		t    *Tree
		cost float64
		kerr error
	)
	err := m.Run(func() { t, cost, kerr = hufpar.HeightLimited(m, freqs, maxHeight) })
	if err != nil {
		return nil, 0, err
	}
	return t, cost, kerr
}

// ShannonFanoContext is ShannonFano under a context.
func ShannonFanoContext(ctx context.Context, probs []float64, opts ...Options) (*ShannonFanoResult, error) {
	m, release := firstOption(opts).acquireContext(ctx)
	defer release()
	var (
		res  *shannonfano.Result
		kerr error
	)
	err := m.Run(func() { res, kerr = shannonfano.Build(m, probs) })
	if err != nil {
		return nil, err
	}
	if kerr != nil {
		return nil, kerr
	}
	return &ShannonFanoResult{
		Lengths:       res.Lengths,
		Codes:         res.Codes,
		Tree:          res.Tree,
		AverageLength: res.AverageLength,
		Stats:         statsOf(m),
	}, nil
}

// ApproxBSTContext is ApproxBST under a context.
func ApproxBSTContext(ctx context.Context, in *BSTInstance, eps float64, opts ...Options) (*ApproxBSTResult, error) {
	m, release := firstOption(opts).acquireContext(ctx)
	defer release()
	var res *obst.ApproxResult
	err := m.Run(func() { res = obst.Approx(m, in, eps) })
	if err != nil {
		return nil, err
	}
	return &ApproxBSTResult{
		Tree:          res.Tree,
		Cost:          res.Cost,
		Epsilon:       res.Epsilon,
		CollapsedKeys: res.Collapsed,
		Comparisons:   res.Comparisons,
		Stats:         statsOf(m),
	}, nil
}

// RecognizeLinearParallelContext is RecognizeLinearParallel under a
// context.
func RecognizeLinearParallelContext(ctx context.Context, g *LinearGrammar, w []byte, opts ...Options) (*LinearRecognitionResult, error) {
	m, release := firstOption(opts).acquireContext(ctx)
	defer release()
	var res *lincfl.DCResult
	err := m.Run(func() { res = lincfl.RecognizeDC(m, g, w) })
	if err != nil {
		return nil, err
	}
	return &LinearRecognitionResult{
		Accepted: res.Accepted,
		Products: res.Products,
		WordOps:  res.WordOps,
		Depth:    res.Depth,
		Stats:    statsOf(m),
	}, nil
}

// DeriveLinearParallelContext is DeriveLinearParallel under a context.
// ok is false both for w ∉ L(G) and on cancellation; check err to tell
// them apart.
func DeriveLinearParallelContext(ctx context.Context, g *LinearGrammar, w []byte, opts ...Options) ([]DerivationStep, bool, error) {
	m, release := firstOption(opts).acquireContext(ctx)
	defer release()
	var (
		steps []DerivationStep
		ok    bool
	)
	err := m.Run(func() { steps, ok = lincfl.DeriveDC(m, g, w) })
	if err != nil {
		return nil, false, err
	}
	return steps, ok, nil
}

// TreeFromMonotoneDepthsContext is TreeFromMonotoneDepths under a
// context.
func TreeFromMonotoneDepthsContext(ctx context.Context, depths []int, opts ...Options) (*Tree, Stats, error) {
	m, release := firstOption(opts).acquireContext(ctx)
	defer release()
	var (
		t    *Tree
		kerr error
	)
	err := m.Run(func() { t, kerr = leafpattern.MonotonePar(m, depths) })
	if err != nil {
		return nil, statsOf(m), err
	}
	return t, statsOf(m), kerr
}

// ConcaveMultiplyContext is ConcaveMultiply under a context.
func ConcaveMultiplyContext(ctx context.Context, a, b [][]float64, opts ...Options) (*ConcaveMultiplyResult, error) {
	m, release := firstOption(opts).acquireContext(ctx)
	defer release()
	var res *ConcaveMultiplyResult
	err := m.Run(func() { res = concaveMultiplyOn(m, a, b) })
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Package partree is a Go implementation of "Constructing Trees in
// Parallel" (Atallah, Kosaraju, Larmore, Miller, Teng — SPAA 1989): PRAM
// algorithms for building Huffman codes, Shannon–Fano codes, trees from
// leaf-depth patterns, nearly optimal binary search trees, and linear
// context-free language recognition, all driven by one engine — (min,+)
// multiplication of concave (Monge) matrices, which needs only O(n²)
// comparisons instead of the Θ(n³) of general matrices.
//
// The package exposes a small façade over the internal packages:
//
//   - Huffman coding: HuffmanTree / HuffmanCodes (sequential baselines),
//     HuffmanParallel (Theorem 5.1's concave-matrix algorithm, with full
//     tree reconstruction), HuffmanRakeCompressCost (Theorem 3.1).
//   - Shannon–Fano coding: ShannonFano (Theorem 7.4; within one bit of
//     Huffman by Claim 7.1).
//   - Tree construction from leaf depths: TreeFromDepths (general
//     patterns, Finger-Reduction, Theorem 7.3), TreeFromMonotoneDepths
//     (Theorem 7.1) and TreeFromBitonicDepths (Theorem 7.2).
//   - Binary search trees: OptimalBST (Knuth's exact O(n²) DP) and
//     ApproxBST (Theorem 6.1's ε-approximation).
//   - Linear context-free languages: NewLinearGrammar, RecognizeLinear
//     (quadratic oracle), RecognizeLinearParallel (Theorem 8.1's
//     separator divide and conquer over Boolean matrices), DeriveLinear.
//   - The engine itself: ConcaveMultiply and IsConcave (Theorem 4.1).
//
// Parallel entry points execute on a simulated PRAM (a worker pool with
// Brent-style step accounting); pass Options to control workers and
// declared processor count, and inspect the returned Stats for the
// counted parallel steps and work that the paper's bounds speak about.
package partree

import (
	"time"

	"partree/internal/pram"
)

// Options configures the simulated PRAM behind the parallel entry points.
type Options struct {
	// Workers is the number of OS-level goroutines executing parallel
	// statements. 0 means GOMAXPROCS.
	Workers int
	// Processors is the declared PRAM processor count p used for step
	// accounting (each parallel statement over n items costs ⌈n/p⌉ steps).
	// 0 means unbounded (every statement costs one step).
	Processors int
	// Grain pins the number of iterations a worker claims per chunk and
	// disables the adaptive chunk controller. 0 means adaptive. Small
	// grains make cancellation (the Context entry points) more responsive
	// and spread small batches across workers at the cost of more
	// scheduling overhead.
	Grain int
	// Trace, when non-nil, captures the call's per-phase spans and
	// per-worker statement slices (see NewTrace). Nil — the default —
	// keeps tracing disarmed at one pointer compare per statement.
	Trace *Trace
}

// PhaseStats is the per-phase cost and scheduler breakdown of a parallel
// call: counted Steps/Work/Calls plus measured Span, Busy and
// BarrierWait (see the pram package for exact semantics).
type PhaseStats = pram.PhaseStats

// Stats reports the simulated-PRAM cost of a parallel call.
type Stats struct {
	// Steps is the number of counted parallel time steps.
	Steps int64
	// Work is the total number of virtual processor operations.
	Work int64
	// Steals is always zero. The runtime hands out chunks from one
	// shared cursor per statement and never steals; the field stays so
	// existing readers keep compiling.
	Steals int64
	// Span is the measured critical-path estimate: the sum over parallel
	// statements of the slowest worker's wall time.
	Span time.Duration
	// BarrierWait is the total time workers idled at statement barriers
	// waiting for the slowest worker.
	BarrierWait time.Duration
	// StealWait is always zero, for the same reason as Steals.
	StealWait time.Duration
	// Phases breaks the cost down by algorithm phase (e.g. "monge.MulPar",
	// "hufpar.spine"). Nil when the call issued no parallel statements.
	Phases map[string]PhaseStats
}

// pramMachine keeps the façade's helper signatures readable without
// importing the internal package at every use site.
type pramMachine = pram.Machine

func statsOf(m *pram.Machine) Stats {
	s := m.Stats()
	out := Stats{
		Steps:       s.Steps,
		Work:        s.Work,
		Span:        s.Span,
		BarrierWait: s.BarrierWait,
	}
	if len(s.Phases) > 0 {
		out.Phases = s.Phases
	}
	return out
}

// ActiveProfileHash always returns "defaults": the runtime runs on
// built-in constants, and there is no per-host profile to install. It
// stays so existing callers that print it keep compiling.
func ActiveProfileHash() string { return "defaults" }

// firstOption returns the first option or the zero value.
func firstOption(opts []Options) Options {
	if len(opts) > 0 {
		return opts[0]
	}
	return Options{}
}

// Benchmarks E1–E8 regenerate the paper's evaluation — its theorems — one
// benchmark per experiment (see DESIGN.md §4 and EXPERIMENTS.md). Each
// reports, beside ns/op, the counted quantities the paper's bounds are
// stated in: parallel steps, comparisons, word operations. The Ablation*
// benchmarks cover the design alternatives called out in DESIGN.md §5.
//
// Run: go test -bench=. -benchmem
package partree

import (
	"fmt"
	"math/rand"
	"testing"

	"partree/internal/boolmat"
	"partree/internal/grammar"
	"partree/internal/huffman"
	"partree/internal/hufpar"
	"partree/internal/leafpattern"
	"partree/internal/lincfl"
	"partree/internal/matrix"
	"partree/internal/monge"
	"partree/internal/obst"
	"partree/internal/par"
	"partree/internal/pram"
	"partree/internal/shannonfano"
	"partree/internal/tree"
	"partree/internal/workload"
	"partree/internal/xmath"
)

func benchSizes(small bool) []int {
	if small {
		return []int{64, 128, 256}
	}
	return []int{64, 128, 256, 512}
}

// E1 — Lemma 2.1: ⌊log n⌋ RAKEs reduce a left-justified tree to its
// leftmost path. Reports the RAKE rounds actually needed.
func BenchmarkE1Rake(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			t := tree.RandomLeftJustified(rng, n)
			b.ResetTimer()
			var rounds int
			for i := 0; i < b.N; i++ {
				rounds, _ = tree.RakeToChain(t)
			}
			b.ReportMetric(float64(rounds), "rake-rounds")
			b.ReportMetric(float64(xmath.FloorLog2(t.Size())), "log2(n)-bound")
		})
	}
}

// E2 — Theorem 4.1: concave (min,+) product in O(n²) comparisons vs Θ(n³)
// brute force. Reports comparisons per n² for both.
func BenchmarkE2ConcaveMM(b *testing.B) {
	for _, n := range benchSizes(testing.Short()) {
		rng := rand.New(rand.NewSource(2))
		a := monge.Random(rng, n, n, 100, 5)
		c := monge.Random(rng, n, n, 100, 5)
		b.Run(fmt.Sprintf("concave/n=%d", n), func(b *testing.B) {
			var cnt matrix.OpCount
			for i := 0; i < b.N; i++ {
				cnt.Reset()
				monge.CutRecursive(a, c, &cnt)
			}
			b.ReportMetric(float64(cnt.Load())/float64(n*n), "cmp/n²")
		})
		b.Run(fmt.Sprintf("brute/n=%d", n), func(b *testing.B) {
			var cnt matrix.OpCount
			for i := 0; i < b.N; i++ {
				cnt.Reset()
				matrix.MulBrute(a, c, &cnt)
			}
			b.ReportMetric(float64(cnt.Load())/float64(n*n), "cmp/n²")
		})
	}
}

// E2 (CRCW form) — Theorem 4.1's O((log log n)²)-time bound: the counted
// statement depth of the CRCW algorithm stays nearly flat in n.
func BenchmarkE2ConcaveMMCRCW(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			a := monge.Random(rng, n, n, 100, 5)
			c := monge.Random(rng, n, n, 100, 5)
			m := pram.New(pram.WithGrain(2048))
			var cnt matrix.OpCount
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				cnt.Reset()
				monge.CutBottomUpCRCW(m, a, c, &cnt)
			}
			b.ReportMetric(float64(m.Counters().Steps), "statements")
			b.ReportMetric(float64(cnt.Load())/float64(n*n), "cmp/n²")
		})
	}
}

// E3 — Theorem 3.1: the RAKE/COMPRESS DP computes the optimal Huffman
// cost in 2⌈log n⌉+1 parallel rounds (Θ(n³) work per round).
func BenchmarkE3RakeCompress(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := workload.SortedAscending(workload.Zipf(n, 1.1))
			m := pram.New()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				hufpar.CostRakeCompress(m, w)
			}
			b.ReportMetric(float64(m.Counters().Steps), "rounds")
			b.ReportMetric(float64(m.Counters().Work), "work")
		})
	}
}

// E4 — Theorem 5.1: Huffman via concave products: O(log² n) statement
// depth, O(n² log n) comparisons, optimal cost, exact tree.
func BenchmarkE4HuffmanConcave(b *testing.B) {
	for _, n := range benchSizes(testing.Short()) {
		for _, wl := range []struct {
			name  string
			freqs []float64
		}{
			{"zipf", workload.SortedAscending(workload.Zipf(n, 1.1))},
			{"uniform", workload.Uniform(n)},
			{"geometric", workload.SortedAscending(workload.Geometric(n, 0.9))},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", wl.name, n), func(b *testing.B) {
				m := pram.New()
				var res *hufpar.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Reset()
					res = hufpar.BuildConcave(m, wl.freqs)
				}
				b.ReportMetric(float64(res.Comparisons)/float64(n*n), "cmp/n²")
				b.ReportMetric(float64(m.Counters().Steps), "statements")
				b.ReportMetric(float64(m.Counters().Work), "work")
			})
		}
	}
}

// E4 baseline: the sequential heap algorithm the parallel one is traded
// against.
func BenchmarkE4SequentialHuffman(b *testing.B) {
	for _, n := range benchSizes(testing.Short()) {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := workload.SortedAscending(workload.Zipf(n, 1.1))
			for i := 0; i < b.N; i++ {
				huffman.BuildSorted(w)
			}
		})
	}
}

// E5 — Theorem 6.1: approximate OBST within ε = n^{-k}; reports the
// measured gap against the Knuth optimum and the comparison work.
func BenchmarkE5ApproxOBST(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		for _, k := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				rng := rand.New(rand.NewSource(3))
				beta := make([]float64, n)
				alpha := make([]float64, n+1)
				tot := 0.0
				for i := range beta {
					beta[i] = rng.Float64()
					tot += beta[i]
				}
				for i := range alpha {
					alpha[i] = rng.Float64() * 0.2
					tot += alpha[i]
				}
				for i := range beta {
					beta[i] /= tot
				}
				for i := range alpha {
					alpha[i] /= tot
				}
				in, _ := obst.NewInstance(beta, alpha)
				eps := 1.0
				for i := 0; i < k; i++ {
					eps /= float64(n)
				}
				opt, _ := obst.Knuth(in)
				m := pram.New(pram.WithGrain(256))
				var res *obst.ApproxResult
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res = obst.Approx(m, in, eps)
				}
				ctr := m.Counters()
				b.ReportMetric(res.Cost-opt, "gap")
				b.ReportMetric(eps, "eps")
				b.ReportMetric(float64(res.Comparisons), "cmp")
				b.ReportMetric(float64(ctr.Steps)/float64(b.N), "statements")
				b.ReportMetric(float64(ctr.Work)/float64(b.N), "work")
			})
		}
	}
}

// E5 baselines: Knuth O(n²) vs the naive O(n³) DP.
func BenchmarkE5KnuthDP(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("knuth/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			in := randObstInstance(rng, n)
			for i := 0; i < b.N; i++ {
				obst.Knuth(in)
			}
		})
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			in := randObstInstance(rng, n)
			for i := 0; i < b.N; i++ {
				obst.Naive(in)
			}
		})
	}
}

func randObstInstance(rng *rand.Rand, n int) *obst.Instance {
	beta := make([]float64, n)
	alpha := make([]float64, n+1)
	for i := range beta {
		beta[i] = rng.Float64()
	}
	for i := range alpha {
		alpha[i] = rng.Float64()
	}
	in, _ := obst.NewInstance(beta, alpha)
	return in
}

// E6 — Theorems 7.1/7.2/7.3: tree construction from leaf patterns.
// Reports the counted statements of every pattern and the
// Finger-Reduction rounds of general ones.
func BenchmarkE6LeafPattern(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		b.Run(fmt.Sprintf("monotone/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			p := workload.MonotonePattern(rng, n, 4)
			m := pram.New(pram.WithGrain(4096))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				if _, err := leafpattern.MonotonePar(m, p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.Counters().Steps), "statements")
		})
		b.Run(fmt.Sprintf("bitonic/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			p := workload.BitonicPattern(rng, n, 4)
			m := pram.New(pram.WithGrain(4096))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				if _, err := leafpattern.BitonicPar(m, p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.Counters().Steps), "statements")
		})
		// The framework calls the function b.Run takes once per b.N
		// round, so the pattern is drawn here, once per size.
		general := workload.TreePattern(rand.New(rand.NewSource(7)), n)
		b.Run(fmt.Sprintf("general/n=%d", n), func(b *testing.B) {
			m := pram.New(pram.WithGrain(4096))
			var rounds int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				var err error
				_, rounds, err = leafpattern.Build(m, general)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.Counters().Steps), "statements")
			b.ReportMetric(float64(rounds), "finger-rounds")
			b.ReportMetric(float64(workload.Fingers(general)), "fingers")
		})
	}
}

// E7 — Theorem 7.4 + Claim 7.1: Shannon–Fano within one bit of Huffman in
// O(log n) statements. Reports the measured gap.
func BenchmarkE7ShannonFano(b *testing.B) {
	text := workload.Text(rand.New(rand.NewSource(12)), 1<<16)
	textFreqs, _, _ := workload.ByteFrequencies(text)
	workload.Normalize(textFreqs)
	for _, wl := range []struct {
		name  string
		probs []float64
	}{
		{"english", workload.English()},
		{"zipf-1k", workload.Zipf(1024, 1.0)},
		{"uniform-4k", workload.Uniform(4096)},
		{"markov-text", textFreqs},
	} {
		b.Run(wl.name, func(b *testing.B) {
			m := pram.New(pram.WithGrain(1024))
			var res *shannonfano.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				var err error
				res, err = shannonfano.Build(m, wl.probs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			gap := res.AverageLength - huffman.Cost(wl.probs)
			b.ReportMetric(gap, "bits-over-huffman")
			b.ReportMetric(float64(m.Counters().Steps), "statements")
		})
	}
}

// E8 — Theorem 8.1: linear CFL recognition by separator D&C + Boolean MM.
// Reports the region table's level count, product count, and word
// operations.
func BenchmarkE8LinCFL(b *testing.B) {
	sizes := []int{63, 127, 255}
	if testing.Short() {
		sizes = []int{63, 127}
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("palindrome-dc/n=%d", n), func(b *testing.B) {
			g := grammar.Palindrome()
			w := palindromeWord(n)
			m := pram.New(pram.WithGrain(64))
			var res *lincfl.DCResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = lincfl.RecognizeDC(m, g, w)
			}
			if !res.Accepted {
				b.Fatal("rejected a palindrome")
			}
			b.ReportMetric(float64(res.Depth), "depth")
			b.ReportMetric(float64(res.Products), "products")
			b.ReportMetric(float64(res.WordOps), "word-ops")
		})
		b.Run(fmt.Sprintf("palindrome-seq/n=%d", n), func(b *testing.B) {
			g := grammar.Palindrome()
			w := palindromeWord(n)
			for i := 0; i < b.N; i++ {
				if !lincfl.Sequential(g, w) {
					b.Fatal("rejected a palindrome")
				}
			}
		})
	}
}

func palindromeWord(n int) []byte {
	w := make([]byte, n)
	for i := 0; i < n/2; i++ {
		w[i] = "ab"[i%2]
		w[n-1-i] = w[i]
	}
	w[n/2] = 'c'
	return w
}

// Ablation: the paper's two Cut algorithms (recursive §4.1, bottom-up
// §4.2) against each other.
func BenchmarkAblationCut(b *testing.B) {
	n := 256
	rng := rand.New(rand.NewSource(8))
	a := monge.Random(rng, n, n, 100, 5)
	c := monge.Random(rng, n, n, 100, 5)
	algos := []struct {
		name string
		run  func(cnt *matrix.OpCount)
	}{
		{"recursive", func(cnt *matrix.OpCount) { monge.CutRecursive(a, c, cnt) }},
		{"bottomup", func(cnt *matrix.OpCount) { monge.CutBottomUp(a, c, cnt) }},
	}
	for _, al := range algos {
		b.Run(al.name, func(b *testing.B) {
			var cnt matrix.OpCount
			for i := 0; i < b.N; i++ {
				cnt.Reset()
				al.run(&cnt)
			}
			b.ReportMetric(float64(cnt.Load())/float64(n*n), "cmp/n²")
		})
	}
}

// Ablation: Huffman engines (sequential heap / two-queue, §3 DP, §5
// concave) at a size where all are feasible.
func BenchmarkAblationHuffman(b *testing.B) {
	n := 128
	w := workload.SortedAscending(workload.Zipf(n, 1.1))
	b.Run("heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			huffman.Build(w)
		}
	})
	b.Run("two-queue", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			huffman.BuildSorted(w)
		}
	})
	b.Run("rake-compress-dp", func(b *testing.B) {
		m := pram.New(pram.WithGrain(512))
		for i := 0; i < b.N; i++ {
			hufpar.CostRakeCompress(m, w)
		}
	})
	b.Run("concave", func(b *testing.B) {
		m := pram.New(pram.WithGrain(512))
		for i := 0; i < b.N; i++ {
			hufpar.BuildConcave(m, w)
		}
	})
}

// Ablation: Boolean matrix multiply, sequential vs PRAM-parallel.
func BenchmarkAblationBoolMM(b *testing.B) {
	n := 512
	rng := rand.New(rand.NewSource(9))
	x, y := boolmat.New(n, n), boolmat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Intn(5) == 0 {
				x.Set(i, j, true)
			}
			if rng.Intn(5) == 0 {
				y.Set(i, j, true)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			boolmat.Mul(x, y)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		m := pram.New(pram.WithGrain(8))
		for i := 0; i < b.N; i++ {
			boolmat.MulPar(m, x, y)
		}
	})
}

// Ablation: §8 naive closure over the full induced graph (the paper's
// "parallelization of dynamic programming" straw man) vs the separator
// divide-and-conquer, by Boolean word operations.
func BenchmarkAblationLinCFLClosure(b *testing.B) {
	g := grammar.Palindrome()
	for _, n := range []int{9, 15, 21} {
		w := palindromeWord(n)
		b.Run(fmt.Sprintf("closure/n=%d", n), func(b *testing.B) {
			m := pram.New(pram.WithGrain(64))
			var res *lincfl.ClosureResult
			for i := 0; i < b.N; i++ {
				res = lincfl.RecognizeClosure(m, g, w)
			}
			if !res.Accepted {
				b.Fatal("rejected member")
			}
			b.ReportMetric(float64(res.WordOps), "word-ops")
			b.ReportMetric(float64(res.Vertices), "vertices")
		})
		b.Run(fmt.Sprintf("dc/n=%d", n), func(b *testing.B) {
			m := pram.New(pram.WithGrain(64))
			var res *lincfl.DCResult
			for i := 0; i < b.N; i++ {
				res = lincfl.RecognizeDC(m, g, w)
			}
			if !res.Accepted {
				b.Fatal("rejected member")
			}
			b.ReportMetric(float64(res.WordOps), "word-ops")
		})
	}
}

// Ablation: length-limited coding — the A_h concave recurrence vs the
// sequential package-merge oracle.
func BenchmarkAblationLengthLimited(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		w := workload.SortedAscending(workload.Zipf(n, 1.2))
		h := xmath.CeilLog2(n) + 2
		b.Run(fmt.Sprintf("concave-Ah/n=%d", n), func(b *testing.B) {
			m := pram.New(pram.WithGrain(1024))
			for i := 0; i < b.N; i++ {
				if _, _, err := hufpar.HeightLimited(m, w, h); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("package-merge/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := huffman.LengthLimited(w, h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: CRCW doubly-logarithmic minimum vs the CREW reduction tree,
// by counted rounds.
func BenchmarkAblationMinDoublyLog(b *testing.B) {
	n := 1 << 18
	xs := make([]float64, n)
	rng := rand.New(rand.NewSource(11))
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.Run("crcw-doublylog", func(b *testing.B) {
		m := pram.New(pram.WithGrain(4096))
		var rounds int
		for i := 0; i < b.N; i++ {
			_, rounds = par.MinDoublyLog(m, xs)
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("crew-reduce", func(b *testing.B) {
		m := pram.New(pram.WithGrain(4096))
		for i := 0; i < b.N; i++ {
			m.Reset()
			par.Reduce(m, xs, 0, func(a, c float64) float64 {
				if c < a {
					return c
				}
				return a
			})
		}
		b.ReportMetric(float64(pramSteps(m)), "rounds")
	})
}

func pramSteps(m *pram.Machine) int64 { return m.Counters().Steps }

// Ablation: tree-from-pattern constructions (greedy oracle vs the link
// kernel vs Finger-Reduction) on monotone input where all apply.
func BenchmarkAblationPattern(b *testing.B) {
	n := 1 << 14
	rng := rand.New(rand.NewSource(10))
	p := workload.MonotonePattern(rng, n, 4)
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := leafpattern.Greedy(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		m := pram.New(pram.WithGrain(2048))
		for i := 0; i < b.N; i++ {
			if _, err := leafpattern.MonotonePar(m, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("finger", func(b *testing.B) {
		m := pram.New(pram.WithGrain(2048))
		for i := 0; i < b.N; i++ {
			if _, _, err := leafpattern.Build(m, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: the exact engines vs the weight-balancing heuristic of the
// paper's reference [7] (Güttler–Mehlhorn–Schneider).
func BenchmarkAblationBSTEngines(b *testing.B) {
	n := 128
	rng := rand.New(rand.NewSource(13))
	in := randObstInstance(rng, n)
	opt, _ := obst.Knuth(in)
	b.Run("knuth-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			obst.Knuth(in)
		}
	})
	b.Run("mehlhorn-heuristic", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			cost, _ = obst.Mehlhorn(in)
		}
		b.ReportMetric(cost-opt, "gap")
	})
	b.Run("approx-eps", func(b *testing.B) {
		m := pram.New(pram.WithGrain(1024))
		var res *obst.ApproxResult
		for i := 0; i < b.N; i++ {
			res = obst.Approx(m, in, 1e-3)
		}
		b.ReportMetric(res.Cost-opt, "gap")
	})
}

package boolmat

import (
	"math/rand"
	"testing"

	"partree/internal/pool"
	"partree/internal/pram"
)

func randMat(rng *rand.Rand, r, c int, density float64) *Matrix {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

func mulNaive(a, b *Matrix) *Matrix {
	out := New(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			for k := 0; k < a.C; k++ {
				if a.Get(i, k) && b.Get(k, j) {
					out.Set(i, j, true)
					break
				}
			}
		}
	}
	return out
}

func TestGetSet(t *testing.T) {
	m := New(3, 130) // crosses word boundaries
	m.Set(2, 129, true)
	m.Set(0, 63, true)
	m.Set(0, 64, true)
	if !m.Get(2, 129) || !m.Get(0, 63) || !m.Get(0, 64) || m.Get(1, 0) {
		t.Error("Get/Set wrong")
	}
	m.Set(0, 63, false)
	if m.Get(0, 63) || !m.Get(0, 64) {
		t.Error("clearing a bit disturbed neighbours")
	}
	if m.Count() != 2 {
		t.Errorf("Count = %d, want 2", m.Count())
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if id.Get(i, j) != (i == j) {
				t.Fatal("identity wrong")
			}
		}
	}
	m := randMat(rand.New(rand.NewSource(1)), 5, 5, 0.3)
	if !Mul(id, m).Equal(m) || !Mul(m, id).Equal(m) {
		t.Error("identity must be neutral for Mul")
	}
}

// mulTiled is Mul with k-tiles sized to budget bytes of B rows.
func mulTiled(a, b *Matrix, budget int) *Matrix {
	out := New(a.R, b.C)
	mulInto(out, a, b, budget)
	return out
}

func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		p, q, r := 1+rng.Intn(80), 1+rng.Intn(80), 1+rng.Intn(150)
		a := randMat(rng, p, q, 0.15)
		b := randMat(rng, q, r, 0.15)
		if !Mul(a, b).Equal(mulNaive(a, b)) {
			t.Fatalf("trial %d: Mul differs from naive (%d,%d,%d)", trial, p, q, r)
		}
	}
	// A 16 KiB budget over B's 18-word rows gives 64-row k-tiles, so A's
	// 300 columns span five of them.
	a := randMat(rng, 40, 300, 0.05)
	b := randMat(rng, 300, 1100, 0.05)
	if kt := mulKTile(b.words, 1<<14); kt != 64 {
		t.Fatalf("k-tile at a 16 KiB budget = %d rows, want 64", kt)
	}
	if !mulTiled(a, b, 1<<14).Equal(mulNaive(a, b)) {
		t.Fatal("Mul over several k-tiles differs from naive")
	}
}

// TestMulIntoOrs checks that MulInto ORs the product into what out
// already holds, and that Mul is MulInto on an all-false matrix.
func TestMulIntoOrs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		p, q, r := 1+rng.Intn(70), 1+rng.Intn(140), 1+rng.Intn(140)
		a, b := randMat(rng, p, q, 0.1), randMat(rng, q, r, 0.1)
		out := randMat(rng, p, r, 0.1)
		want := mulNaive(a, b).Or(out.Clone())
		MulInto(out, a, b)
		if !out.Equal(want) {
			t.Fatalf("trial %d (%d,%d,%d): MulInto differs from the naive product ORed in", trial, p, q, r)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MulInto into a misshapen matrix did not panic")
		}
	}()
	MulInto(New(2, 4), New(2, 3), New(3, 5))
}

func TestMulParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := pram.New(pram.WithWorkers(4), pram.WithGrain(4))
	for trial := 0; trial < 15; trial++ {
		p, q, r := 1+rng.Intn(100), 1+rng.Intn(100), 1+rng.Intn(100)
		a := randMat(rng, p, q, 0.2)
		b := randMat(rng, q, r, 0.2)
		if !MulPar(m, a, b).Equal(Mul(a, b)) {
			t.Fatalf("trial %d: parallel product differs", trial)
		}
	}
}

func TestOrAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 10, 10, 0.3)
	b := randMat(rng, 10, 10, 0.3)
	c := a.Clone()
	c.Or(b)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if c.Get(i, j) != (a.Get(i, j) || b.Get(i, j)) {
				t.Fatal("Or wrong")
			}
		}
	}
}

func TestClosureChain(t *testing.T) {
	// Path graph 0→1→2→3: closure is the upper triangle.
	m := New(4, 4)
	for i := 0; i < 3; i++ {
		m.Set(i, i+1, true)
	}
	cl := Closure(m)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if cl.Get(i, j) != (j >= i) {
				t.Fatalf("closure wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestClosureMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(40)
		m := randMat(rng, n, n, 0.08)
		want := m.Clone().Or(Identity(n))
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				if want.Get(i, k) {
					for j := 0; j < n; j++ {
						if want.Get(k, j) {
							want.Set(i, j, true)
						}
					}
				}
			}
		}
		if !Closure(m).Equal(want) {
			t.Fatalf("trial %d: closure differs from Floyd-Warshall", trial)
		}
	}
}

func TestMulCounted(t *testing.T) {
	// All-false product: the scan reads each of the 8 rows' single packed
	// word and ORs nothing.
	var cnt OpCounter
	a, b := New(8, 8), New(8, 8)
	MulCounted(a, b, &cnt)
	if cnt.Load() != 8 {
		t.Errorf("all-false ops = %d, want 8 (one scanned word per row)", cnt.Load())
	}
	// With s set bits in A, the multiply additionally ORs s output rows of
	// one word each — counted during the multiply, so the tally reflects
	// the sparse work actually done.
	a.Set(0, 3, true)
	a.Set(5, 1, true)
	a.Set(5, 7, true)
	b.Set(3, 2, true)
	b.Set(1, 6, true)
	var cnt2 OpCounter
	got := MulCounted(a, b, &cnt2)
	if want := int64(8 + 3); cnt2.Load() != want {
		t.Errorf("sparse ops = %d, want %d", cnt2.Load(), want)
	}
	if !got.Equal(Mul(a, b)) {
		t.Error("MulCounted product differs from Mul")
	}
	var nilCnt *OpCounter
	nilCnt.Add(3)
	if nilCnt.Load() != 0 {
		t.Error("nil counter must be inert")
	}
}

func TestReleaseRecyclesAndDoubleReleasePanics(t *testing.T) {
	pool.Reset()
	defer pool.Reset()
	m := NewFromPool(8, 130)
	m.Set(3, 100, true)
	m.Release()
	if st := pool.Snapshot(); st.Puts == 0 {
		t.Error("Release did not return the slab to the arena")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	m.Release()
}

// TestPooledMulMatchesUnpooled locks the blocked pooled kernel to the
// naive triple loop bit-for-bit on random matrices spanning tile
// boundaries.
func TestPooledMulMatchesUnpooled(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		p, q, r := 1+rng.Intn(90), 1+rng.Intn(150), 1+rng.Intn(90)
		a, b := New(p, q), New(q, r)
		for i := 0; i < p; i++ {
			for j := 0; j < q; j++ {
				a.Set(i, j, rng.Intn(4) == 0)
			}
		}
		for i := 0; i < q; i++ {
			for j := 0; j < r; j++ {
				b.Set(i, j, rng.Intn(4) == 0)
			}
		}
		pooled := Mul(a, b)
		if !pooled.Equal(mulNaive(a, b)) {
			t.Fatalf("trial %d (%dx%dx%d): pooled product differs from the naive product", trial, p, q, r)
		}
		pooled.Release()
	}
}

func TestDimensionPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"mul":     func() { Mul(New(2, 3), New(4, 5)) },
		"or":      func() { New(2, 2).Or(New(3, 3)) },
		"closure": func() { Closure(New(2, 3)) },
		"neg":     func() { New(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestStringRender(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, true)
	if m.String() != "01\n00\n" {
		t.Errorf("String = %q", m.String())
	}
}

func TestClosureParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := pram.New(pram.WithWorkers(4), pram.WithGrain(4))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(60)
		x := randMat(rng, n, n, 0.06)
		if !ClosurePar(m, x).Equal(Closure(x)) {
			t.Fatalf("trial %d: parallel closure differs", trial)
		}
	}
}

// orBitsNaive is OrBits one bit at a time.
func orBitsNaive(m *Matrix, di, dc int, src *Matrix, si, sc, n int) {
	for x := 0; x < n; x++ {
		if src.Get(si, sc+x) {
			m.Set(di, dc+x, true)
		}
	}
}

// TestOrBitsOffsets checks the bit-range OR against a bit-at-a-time
// copy at source and destination offsets on and around word edges,
// with ranges inside one word, straddling two, and spanning several.
func TestOrBitsOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	offsets := []int{0, 1, 63, 64, 65, 127, 128, 129}
	lengths := []int{0, 1, 2, 62, 63, 64, 65, 66, 130}
	for _, dc := range offsets {
		for _, sc := range offsets {
			for _, n := range lengths {
				src := randMat(rng, 2, sc+n+rng.Intn(70), 0.5)
				got := randMat(rng, 3, dc+n+rng.Intn(70), 0.3)
				want := got.Clone()
				orBitsNaive(want, 1, dc, src, 1, sc, n)
				got.OrBits(1, dc, src, 1, sc, n)
				if !got.Equal(want) {
					t.Fatalf("dc=%d sc=%d n=%d:\ngot\n%vwant\n%v", dc, sc, n, got, want)
				}
			}
		}
	}
	// A range that straddles two destination words from inside one
	// source word, and the reverse.
	src := randMat(rng, 1, 128, 0.5)
	for _, c := range [][3]int{{60, 2, 10}, {2, 60, 10}, {56, 120, 8}} {
		got := New(1, 128)
		want := New(1, 128)
		orBitsNaive(want, 0, c[0], src, 0, c[1], c[2])
		got.OrBits(0, c[0], src, 0, c[1], c[2])
		if !got.Equal(want) {
			t.Fatalf("straddle %v:\ngot\n%vwant\n%v", c, got, want)
		}
	}
}

func TestOrBitsBounds(t *testing.T) {
	m := New(1, 64)
	for _, c := range [][3]int{{60, 0, 5}, {0, 60, 5}, {-1, 0, 1}, {0, 0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("OrBits(dc=%d, sc=%d, n=%d) on 64 columns did not panic", c[0], c[1], c[2])
				}
			}()
			m.OrBits(0, c[0], m, 0, c[1], c[2])
		}()
	}
}

func TestOrRows(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	src := randMat(rng, 6, 130, 0.4)
	got := randMat(rng, 5, 130, 0.2)
	want := got.Clone()
	for x := 0; x < 3; x++ {
		for j := 0; j < 130; j++ {
			if src.Get(2+x, j) {
				want.Set(1+x, j, true)
			}
		}
	}
	got.OrRows(1, src, 2, 3)
	if !got.Equal(want) {
		t.Fatalf("got\n%vwant\n%v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("OrRows across different column counts did not panic")
		}
	}()
	got.OrRows(0, New(1, 129), 0, 1)
}

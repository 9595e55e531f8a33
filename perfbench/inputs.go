package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"partree"
	"partree/internal/tree"
)

// Request kinds, in the svc-miss round-robin order.
const (
	kHuffman = iota
	kShannonFano
	kDepths
	kOBST
	kLinCFL
)

var svcEngines = []string{"huffman", "shannonfano", "treefromdepths", "obst", "lincfl"}

var kindPath = []string{"/v1/huffman", "/v1/shannonfano", "/v1/treefromdepths", "/v1/obst", "/v1/lincfl/recognize"}

// job is one request in compact form, with its expected answer. The
// answer comes from a serial oracle before anything is timed: either for
// the job itself, or for a base job it was derived from by a
// transformation whose effect on the answer is known (see rotated,
// mirrored, flipped and the two-subtree depth patterns). The body is
// spelled out only when the job is sent, which keeps a run's inputs
// small.
type job struct {
	kind  uint8
	rot   uint16   // coding: symbol i has weight v[(i+rot) mod n]
	scale int64    // coding: every weight is multiplied by scale on the wire
	v     []uint16 // coding weights; obst keys then gaps; depths of the left subtree
	v2    []uint16 // depths of the right subtree
	word  []byte   // lincfl
	cost  float64  // huffman and obst: the optimum
	lens  []uint8  // shannonfano: ⌈log₂ 1/pᵢ⌉ of the unrotated weights
	yes   bool     // lincfl: the word is in the language
}

// ints returns the integers the body carries: the rotated weights, the
// leaf depths of a root over the two subtrees, or the keys and gaps.
func (j *job) ints() []uint16 {
	switch j.kind {
	case kHuffman, kShannonFano:
		if j.rot == 0 {
			return j.v
		}
		n := len(j.v)
		out := make([]uint16, n)
		for i := range out {
			out[i] = j.v[(i+int(j.rot))%n]
		}
		return out
	case kDepths:
		out := make([]uint16, 0, len(j.v)+len(j.v2))
		for _, d := range j.v {
			out = append(out, d+1)
		}
		for _, d := range j.v2 {
			out = append(out, d+1)
		}
		return out
	}
	return j.v
}

// rotated is the coding job with its weights rotated by r places: the
// same multiset of weights, so the same Huffman cost, and Shannon–Fano
// lengths rotated with them; a different request for every r < n.
func (j job) rotated(r int) job {
	j.rot = uint16(r % len(j.v))
	return j
}

// mirrored is the obst job with keys and gaps in reverse order, whose
// optimum is the same.
func (j job) mirrored() job {
	v := make([]uint16, len(j.v))
	n := len(j.v) / 2
	for i := 0; i < n; i++ {
		v[i] = j.v[n-1-i]
	}
	for i := 0; i <= n; i++ {
		v[n+i] = j.v[len(j.v)-1-i]
	}
	j.v = v
	return j
}

// flipped is the lincfl job with a random set of mirror-image letter
// pairs (i, |w|-1-i) swapped between a and b. A palindrome stays one and
// a word with one mismatched pair keeps it, so the answer is unchanged.
func (j job) flipped(rng *rand.Rand) job {
	w := append([]byte(nil), j.word...)
	for i := 0; i < len(w)/2; i++ {
		if rng.Intn(2) == 0 {
			w[i] = "ab"[w[i]-'a'^1]
			w[len(w)-1-i] = "ab"[w[len(w)-1-i]-'a'^1]
		}
	}
	j.word = w
	return j
}

func (j *job) path() string { return kindPath[j.kind] }

// intWeights draws n integer weights in [lo, hi].
func intWeights(rng *rand.Rand, n, lo, hi int) []uint16 {
	w := make([]uint16, n)
	for i := range w {
		w[i] = uint16(lo + rng.Intn(hi-lo+1))
	}
	return w
}

func widen(v []uint16) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

func widen8(v []uint8) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

// appendInts appends the JSON array of vs, each multiplied by scale.
func appendInts(b []byte, vs []uint16, scale int64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v)*scale, 10)
	}
	return append(b, ']')
}

// appendBody appends the request body.
func (j *job) appendBody(b []byte) []byte {
	switch j.kind {
	case kHuffman, kShannonFano:
		b = appendInts(append(b, `{"weights":`...), j.ints(), j.scale)
	case kDepths:
		b = appendInts(append(b, `{"depths":`...), j.ints(), 1)
	case kOBST:
		n := len(j.v) / 2
		b = appendInts(append(b, `{"keys":`...), j.v[:n], 1)
		b = appendInts(append(b, `,"gaps":`...), j.v[n:], 1)
	default:
		b = append(append(append(b, `{"grammar":"palindrome","word":"`...), j.word...), '"')
	}
	return append(b, '}')
}

// probs normalizes integer weights the way the service does: each weight
// divided by the float sum taken in order.
func probs(w []uint16) []float64 {
	sum := 0.0
	for _, v := range w {
		sum += float64(v)
	}
	p := make([]float64, len(w))
	for i, v := range w {
		p[i] = float64(v) / sum
	}
	return p
}

// sfLengths is the Shannon–Fano code length ⌈log₂ 1/pᵢ⌉ of every symbol,
// in exact integer arithmetic: the least l with wᵢ·2^l ≥ Σw.
func sfLengths(w []uint16) []uint8 {
	total := 0
	for _, v := range w {
		total += int(v)
	}
	out := make([]uint8, len(w))
	for i, v := range w {
		l := 0
		for int(v)<<l < total {
			l++
		}
		out[i] = uint8(l)
	}
	return out
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// codingJob is a /v1/huffman (sf false) or /v1/shannonfano request over
// the integer weights w, spelled with every weight multiplied by scale,
// which leaves the answer unchanged.
func codingJob(w []uint16, scale int64, sf bool) job {
	if sf {
		return job{kind: kShannonFano, scale: scale, v: w, lens: sfLengths(w)}
	}
	return job{kind: kHuffman, scale: scale, v: w, cost: partree.HuffmanCost(probs(w))}
}

// respelled is the same request with every weight multiplied by scale.
func (j job) respelled(scale int64) job {
	j.scale = scale
	return j
}

// treeDepths returns the left-to-right leaf depths of a random full
// binary tree with n leaves, so the pattern is realizable by
// construction.
func treeDepths(rng *rand.Rand, n int) []uint16 {
	out := make([]uint16, 0, n)
	var split func(n, d int)
	split = func(n, d int) {
		if n == 1 {
			out = append(out, uint16(d))
			return
		}
		k := 1 + rng.Intn(n-1)
		split(k, d+1)
		split(n-k, d+1)
	}
	split(n, 0)
	return out
}

// subtreeDepths is treeDepths checked by the serial realizability
// oracle.
func subtreeDepths(rng *rand.Rand, n int) []uint16 {
	d := treeDepths(rng, n)
	if !partree.DepthsRealizable(widen(d)) {
		panic("perfbench: generated an unrealizable depth pattern")
	}
	return d
}

// depthsJob is a /v1/treefromdepths request for the pattern of a root
// over two realizable subtree patterns, which is realizable.
func depthsJob(left, right []uint16) job {
	return job{kind: kDepths, v: left, v2: right}
}

// bstInstance normalizes integer key and gap weights the way the service
// does: the sum is taken over keys then gaps, in order.
func bstInstance(keys, gaps []uint16) *partree.BSTInstance {
	sum := 0.0
	for _, v := range keys {
		sum += float64(v)
	}
	for _, v := range gaps {
		sum += float64(v)
	}
	k := make([]float64, len(keys))
	g := make([]float64, len(gaps))
	for i, v := range keys {
		k[i] = float64(v) / sum
	}
	for i, v := range gaps {
		g[i] = float64(v) / sum
	}
	in, err := partree.NewBSTInstance(k, g)
	if err != nil {
		panic(err) // lengths and signs are right by construction
	}
	return in
}

// obstJob is a /v1/obst request with n keys and n+1 gaps.
func obstJob(keys, gaps []uint16) job {
	opt, _ := partree.OptimalBST(bstInstance(keys, gaps))
	return job{kind: kOBST, v: append(keys, gaps...), cost: opt}
}

// palindromeWord returns x c reverse(x) with |x| = (n-1)/2 over {a,b};
// when accept is false one letter of the second half is flipped.
func palindromeWord(rng *rand.Rand, n int, accept bool) []byte {
	h := (n - 1) / 2
	w := make([]byte, 2*h+1)
	for i := 0; i < h; i++ {
		w[i] = "ab"[rng.Intn(2)]
		w[2*h-i] = w[i]
	}
	w[h] = 'c'
	if !accept {
		i := h + 1 + rng.Intn(h)
		w[i] = "ab"[w[i]-'a'^1]
	}
	return w
}

// palindrome is the stock grammar the lincfl requests name.
var palindrome = partree.PalindromeGrammar()

// cflJob is a /v1/lincfl/recognize request for the stock palindrome
// grammar, checked against the sequential recognizer.
func cflJob(word []byte) job {
	return job{kind: kLinCFL, word: word, yes: partree.RecognizeLinear(palindrome, word)}
}

// check compares a response body with the expected answer.
func (j *job) check(resp []byte) error {
	name := svcEngines[j.kind]
	var err error
	switch j.kind {
	case kHuffman, kShannonFano:
		err = j.checkCoding(resp)
	case kDepths:
		err = j.checkDepths(resp)
	case kOBST:
		err = j.checkOBST(resp)
	default:
		var r struct {
			Accepted *bool `json:"accepted"`
		}
		if err = json.Unmarshal(resp, &r); err == nil && (r.Accepted == nil || *r.Accepted != j.yes) {
			err = fmt.Errorf("answer differs from the sequential recognizer (%v)", j.yes)
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	return nil
}

func (j *job) checkCoding(resp []byte) error {
	var r struct {
		N       int      `json:"n"`
		Lengths []int    `json:"lengths"`
		Codes   []string `json:"codes"`
		AvgBits float64  `json:"avg_bits"`
	}
	if err := json.Unmarshal(resp, &r); err != nil {
		return err
	}
	n := len(j.v)
	if r.N != n || len(r.Lengths) != n || len(r.Codes) != n {
		return fmt.Errorf("%d symbols answered for %d", len(r.Lengths), n)
	}
	p := probs(j.ints())
	avg, kraft := 0.0, 0.0
	for i, l := range r.Lengths {
		if len(r.Codes[i]) != l {
			return fmt.Errorf("code %q of symbol %d has length %d", r.Codes[i], i, l)
		}
		avg += p[i] * float64(l)
		kraft += math.Ldexp(1, -l)
	}
	if kraft > 1+1e-12 || !near(avg, r.AvgBits) {
		return fmt.Errorf("not a prefix code with the stated average (kraft %v, avg %v vs %v)", kraft, avg, r.AvgBits)
	}
	if j.kind == kHuffman {
		if !near(r.AvgBits, j.cost) {
			return fmt.Errorf("average length %v, optimum %v", r.AvgBits, j.cost)
		}
		return nil
	}
	for i, l := range r.Lengths {
		if want := int(j.lens[(i+int(j.rot))%n]); l != want {
			return fmt.Errorf("symbol %d has length %d, want %d", i, l, want)
		}
	}
	return nil
}

// checkDepths wants a tree whose leaves, left to right, are symbols
// 0..n-1 at exactly the requested depths.
func (j *job) checkDepths(resp []byte) error {
	var r struct {
		Realizable bool   `json:"realizable"`
		Shape      string `json:"shape"`
		Symbols    []int  `json:"symbols"`
	}
	if err := json.Unmarshal(resp, &r); err != nil {
		return err
	}
	if !r.Realizable {
		return fmt.Errorf("realizable pattern reported unrealizable")
	}
	t, err := tree.Unmarshal(r.Shape, r.Symbols)
	if err != nil {
		return err
	}
	for i, s := range r.Symbols {
		if s != i {
			return fmt.Errorf("leaf %d carries symbol %d", i, s)
		}
	}
	if !equalInts(t.LeafDepths(), widen(j.ints())) {
		return fmt.Errorf("leaf depths differ from the pattern")
	}
	return nil
}

// checkOBST wants Knuth's optimum and a search tree realizing it.
func (j *job) checkOBST(resp []byte) error {
	var r struct {
		N       int     `json:"n"`
		Cost    float64 `json:"cost"`
		Shape   string  `json:"shape"`
		Symbols []int   `json:"symbols"`
	}
	if err := json.Unmarshal(resp, &r); err != nil {
		return err
	}
	n := len(j.v) / 2
	if r.N != n || !near(r.Cost, j.cost) {
		return fmt.Errorf("cost %v for n=%d, optimum %v for n=%d", r.Cost, r.N, j.cost, n)
	}
	t, err := tree.Unmarshal(r.Shape, r.Symbols)
	if err != nil {
		return err
	}
	leaves := numberKeys(t)
	if len(leaves) != n+1 {
		return fmt.Errorf("%d gaps in the tree, want %d", len(leaves), n+1)
	}
	for i, s := range leaves {
		if s != i {
			return fmt.Errorf("gap %d carries symbol %d", i, s)
		}
	}
	if c := partree.BSTCost(bstInstance(j.v[:n], j.v[n:]), t); !near(c, j.cost) {
		return fmt.Errorf("the returned tree costs %v, optimum %v", c, j.cost)
	}
	return nil
}

// numberKeys gives the internal nodes of a search tree their key indices
// (the i-th internal node in inorder holds key i) and returns the leaf
// symbols in order.
func numberKeys(t *partree.Tree) (leaves []int) {
	next := 0
	var walk func(v *partree.Tree)
	walk = func(v *partree.Tree) {
		if v == nil {
			return
		}
		if v.IsLeaf() {
			leaves = append(leaves, v.Symbol)
			return
		}
		walk(v.Left)
		v.Symbol = next
		next++
		walk(v.Right)
	}
	walk(t)
	return leaves
}

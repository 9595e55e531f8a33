package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"net/http"

	"partree"
	"partree/internal/grammar"
	"partree/internal/pool"
)

// Limits bounds request sizes so that arbitrary bodies cannot allocate
// unbounded memory or super-quadratic CPU. Exceeding a limit is a
// structured 400, not a panic.
type Limits struct {
	// MaxBodyBytes caps the request body (JSON) size.
	MaxBodyBytes int64
	// MaxVectorLen caps weight/probability/depth vectors and OBST keys.
	MaxVectorLen int
	// MaxDepth caps individual leaf depths for /v1/treefromdepths.
	MaxDepth int
	// MaxWordLen caps /v1/lincfl/recognize words (the sequential oracle
	// is quadratic in the word).
	MaxWordLen int
	// MaxRules caps grammar rule counts.
	MaxRules int
}

func (l *Limits) setDefaults() {
	if l.MaxBodyBytes == 0 {
		l.MaxBodyBytes = 8 << 20
	}
	if l.MaxVectorLen == 0 {
		l.MaxVectorLen = 1 << 16
	}
	if l.MaxDepth == 0 {
		l.MaxDepth = 1 << 12
	}
	if l.MaxWordLen == 0 {
		l.MaxWordLen = 1 << 12
	}
	if l.MaxRules == 0 {
		l.MaxRules = 256
	}
}

// WithDefaults returns the limits with every zero field resolved to its
// default — the same resolution a Server applies — so an out-of-package
// consumer (the cluster gateway) can bound bodies identically.
func (l Limits) WithDefaults() Limits {
	l.setDefaults()
	return l
}

// apiError is a structured client-visible error; it renders as
// {"error": {"code": ..., "message": ...}} with the given HTTP status.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return e.Code + ": " + e.Message }

func badRequest(code, format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: code, Message: fmt.Sprintf(format, args...)}
}

// decodeJSON strictly decodes one JSON object from at most limit bytes
// of body: unknown fields and trailing garbage are errors, so a typo'd
// request cannot silently fall back to defaults.
func decodeJSON(body []byte, limit int64, dst any) *apiError {
	if int64(len(body)) > limit {
		body = body[:limit]
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("bad_json", "decoding request body: %v", err)
	}
	if dec.More() {
		return badRequest("bad_json", "trailing data after JSON body")
	}
	return nil
}

// --- per-endpoint request/response types, validation and parsing ---
//
// Canonicalization maps a request to the normalized form the engine
// actually solves, and the cache key is the hash of that form — so JSON
// spelling differences ("1" vs "1.0" vs "1e0") and engine-irrelevant
// scale differences (code lengths are invariant under uniform weight
// scaling) all land on one cache entry. Each parse* function is one
// engineDef.parse: decode, validate, normalize, and key.

// codingRequest is the body of /v1/huffman and /v1/shannonfano.
type codingRequest struct {
	// Weights are the symbol frequencies (huffman) or probabilities
	// (shannonfano). They are scaled to sum to 1 before solving, which
	// both engines are invariant under.
	Weights []float64 `json:"weights"`
}

// parseCoding parses /v1/huffman and /v1/shannonfano bodies into
// unit-sum weights (pooled; see engineDef.release).
func parseCoding(name string, body []byte, lim Limits) ([]float64, string, *apiError) {
	var req codingRequest
	if e := decodeJSON(body, lim.MaxBodyBytes, &req); e != nil {
		return nil, "", e
	}
	probs, e := normalizeWeights(req.Weights, lim)
	if e != nil {
		return nil, "", e
	}
	k := newKey(name)
	k.floats(probs)
	return probs, k.sum(name), nil
}

// normalizeWeights validates and scales a weight vector to unit sum. Each
// entry must be finite and > 0, and must not underflow to zero when
// divided by the total (an underflowed probability has no representable
// code length).
func normalizeWeights(ws []float64, lim Limits) ([]float64, *apiError) {
	if len(ws) == 0 {
		return nil, badRequest("empty_input", "weights must be non-empty")
	}
	if len(ws) > lim.MaxVectorLen {
		return nil, badRequest("too_large", "%d weights exceeds limit %d", len(ws), lim.MaxVectorLen)
	}
	sum := 0.0
	for i, w := range ws {
		if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			return nil, badRequest("bad_weight", "weight %v at index %d: must be finite and > 0", w, i)
		}
		sum += w
	}
	if math.IsInf(sum, 0) {
		return nil, badRequest("bad_weight", "weights overflow float64 when summed")
	}
	// Pooled: the handler releases the slab once the response is written
	// (the engines never retain a job's weights past Submit).
	out := pool.Float64s(len(ws))
	for i, w := range ws {
		p := w / sum
		if p == 0 {
			pool.PutFloat64s(out)
			return nil, badRequest("bad_weight", "weight at index %d underflows after normalization", i)
		}
		out[i] = p
	}
	return out, nil
}

// codingResponse is the body of /v1/huffman and /v1/shannonfano
// responses. AvgBits is in the normalized scale: average code-word length
// in bits per symbol.
type codingResponse struct {
	N       int      `json:"n"`
	Lengths []int    `json:"lengths"`
	Codes   []string `json:"codes"`
	AvgBits float64  `json:"avg_bits"`
}

type depthsRequest struct {
	Depths []int `json:"depths"`
}

func parseDepths(name string, body []byte, lim Limits) ([]int, string, *apiError) {
	var req depthsRequest
	if e := decodeJSON(body, lim.MaxBodyBytes, &req); e != nil {
		return nil, "", e
	}
	if e := validateDepths(req.Depths, lim); e != nil {
		return nil, "", e
	}
	k := newKey(name)
	k.ints(req.Depths)
	return req.Depths, k.sum(name), nil
}

func validateDepths(depths []int, lim Limits) *apiError {
	if len(depths) == 0 {
		return badRequest("empty_input", "depths must be non-empty")
	}
	if len(depths) > lim.MaxVectorLen {
		return badRequest("too_large", "%d depths exceeds limit %d", len(depths), lim.MaxVectorLen)
	}
	for i, d := range depths {
		if d < 0 || d > lim.MaxDepth {
			return badRequest("bad_depth", "depth %d at index %d outside [0, %d]", d, i, lim.MaxDepth)
		}
	}
	return nil
}

type depthsResponse struct {
	Realizable bool   `json:"realizable"`
	Shape      string `json:"shape,omitempty"`
	Symbols    []int  `json:"symbols,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

type obstRequest struct {
	// Keys are the n key access probabilities, Gaps the n+1 miss
	// probabilities. Scaled to unit total mass before solving.
	Keys []float64 `json:"keys"`
	Gaps []float64 `json:"gaps"`
}

// parseOBST parses an OBST body into an instance over pooled, unit-mass
// probability vectors. normalizeOBST rejects everything
// partree.NewBSTInstance would, so the instance is built directly.
func parseOBST(name string, body []byte, lim Limits) (*partree.BSTInstance, string, *apiError) {
	var req obstRequest
	if e := decodeJSON(body, lim.MaxBodyBytes, &req); e != nil {
		return nil, "", e
	}
	keys, gaps, e := normalizeOBST(&req, lim)
	if e != nil {
		return nil, "", e
	}
	k := newKey(name)
	k.ints([]int{len(keys)}) // delimits the two vectors unambiguously
	k.floats(keys)
	k.floats(gaps)
	return &partree.BSTInstance{Beta: keys, Alpha: gaps}, k.sum(name), nil
}

// normalizeOBST validates an OBST instance and scales the joint mass to
// 1. Entries must be finite and ≥ 0 with positive total.
func normalizeOBST(req *obstRequest, lim Limits) (keys, gaps []float64, e *apiError) {
	n := len(req.Keys)
	if n == 0 {
		return nil, nil, badRequest("empty_input", "keys must be non-empty")
	}
	if n > lim.MaxVectorLen {
		return nil, nil, badRequest("too_large", "%d keys exceeds limit %d", n, lim.MaxVectorLen)
	}
	if len(req.Gaps) != n+1 {
		return nil, nil, badRequest("bad_instance", "need %d gaps for %d keys, got %d", n+1, n, len(req.Gaps))
	}
	sum := 0.0
	check := func(vs []float64, what string) *apiError {
		for i, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return badRequest("bad_weight", "%s %v at index %d: must be finite and ≥ 0", what, v, i)
			}
			sum += v
		}
		return nil
	}
	if e := check(req.Keys, "key probability"); e != nil {
		return nil, nil, e
	}
	if e := check(req.Gaps, "gap probability"); e != nil {
		return nil, nil, e
	}
	if sum <= 0 || math.IsInf(sum, 0) {
		return nil, nil, badRequest("bad_weight", "total probability mass must be positive and finite")
	}
	keys = pool.Float64s(n)
	gaps = pool.Float64s(n + 1)
	for i, v := range req.Keys {
		keys[i] = v / sum
	}
	for i, v := range req.Gaps {
		gaps[i] = v / sum
	}
	return keys, gaps, nil
}

// obstResponse carries the optimal tree as a balanced-parentheses shape
// plus the leaf (gap) symbols. Internal nodes hold the keys; their
// indices are not shipped because a search tree determines them — the
// i-th internal node in inorder holds key i.
type obstResponse struct {
	N       int     `json:"n"`
	Cost    float64 `json:"cost"`
	Shape   string  `json:"shape"`
	Symbols []int   `json:"symbols"`
}

type lincflRequest struct {
	// Grammar names a stock grammar ("palindrome" or "equalends"); Rules
	// and Start give an explicit grammar instead. Exactly one of the two
	// forms must be used.
	Grammar string       `json:"grammar,omitempty"`
	Rules   []lincflRule `json:"rules,omitempty"`
	Start   string       `json:"start,omitempty"`
	Word    string       `json:"word"`
}

type lincflRule struct {
	A   string `json:"a"`
	Pre string `json:"pre,omitempty"`
	B   string `json:"b,omitempty"`
	Suf string `json:"suf,omitempty"`
}

type lincflResponse struct {
	Accepted bool `json:"accepted"`
}

// parseLinCFL parses a lincfl body, resolving its grammar. The key hashes
// the request as given (stock name or rules), not the normalized grammar.
func parseLinCFL(name string, body []byte, lim Limits) (partree.LinCFLBatchJob, string, *apiError) {
	var req lincflRequest
	if e := decodeJSON(body, lim.MaxBodyBytes, &req); e != nil {
		return partree.LinCFLBatchJob{}, "", e
	}
	g, e := resolveGrammar(&req, lim)
	if e != nil {
		return partree.LinCFLBatchJob{}, "", e
	}
	k := newKey(name)
	if req.Grammar != "" {
		k.bytes([]byte("stock:" + req.Grammar))
	} else {
		k.bytes([]byte("start:" + req.Start))
		for _, r := range req.Rules {
			k.bytes([]byte(r.A))
			k.bytes([]byte(r.Pre))
			k.bytes([]byte(r.B))
			k.bytes([]byte(r.Suf))
		}
	}
	k.bytes([]byte(req.Word))
	return partree.LinCFLBatchJob{Grammar: g, Word: []byte(req.Word)}, k.sum(name), nil
}

// resolveGrammar validates a lincfl request and resolves its grammar.
func resolveGrammar(req *lincflRequest, lim Limits) (*partree.LinearGrammar, *apiError) {
	if len(req.Word) > lim.MaxWordLen {
		return nil, badRequest("too_large", "word length %d exceeds limit %d", len(req.Word), lim.MaxWordLen)
	}
	switch {
	case req.Grammar != "" && len(req.Rules) > 0:
		return nil, badRequest("bad_grammar", "give either a stock grammar name or rules, not both")
	case req.Grammar != "":
		g, ok := stockGrammar(req.Grammar)
		if !ok {
			return nil, badRequest("bad_grammar", "unknown stock grammar %q", req.Grammar)
		}
		return g, nil
	case len(req.Rules) > 0:
		if len(req.Rules) > lim.MaxRules {
			return nil, badRequest("too_large", "%d rules exceeds limit %d", len(req.Rules), lim.MaxRules)
		}
		raw := make([]partree.GrammarRule, len(req.Rules))
		for i, r := range req.Rules {
			raw[i] = partree.GrammarRule{A: r.A, Pre: r.Pre, B: r.B, Suf: r.Suf}
		}
		g, err := partree.NewLinearGrammar(raw, req.Start)
		if err != nil {
			return nil, badRequest("bad_grammar", "%v", err)
		}
		return g, nil
	default:
		return nil, badRequest("bad_grammar", "missing grammar (stock name or rules)")
	}
}

// stockGrammar resolves the named stock grammars exposed by the API.
func stockGrammar(name string) (*partree.LinearGrammar, bool) {
	switch name {
	case "palindrome":
		return grammar.Palindrome(), true
	case "equalends":
		return grammar.EqualEnds(), true
	default:
		return nil, false
	}
}

// --- canonical cache keys ---

// keyWriter hashes the canonical binary encoding of a normalized request.
type keyWriter struct {
	h hash.Hash
}

func newKey(engine string) keyWriter {
	h := getHasher()
	h.Write([]byte(engine))
	h.Write([]byte{0})
	return keyWriter{h: h}
}

func (k keyWriter) floats(vs []float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		k.h.Write(buf[:])
	}
}

func (k keyWriter) ints(vs []int) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		k.h.Write(buf[:])
	}
}

// bytes writes a length-prefixed byte string (self-delimiting, so
// adjacent fields cannot alias each other).
func (k keyWriter) bytes(b []byte) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(b)))
	k.h.Write(buf[:])
	k.h.Write(b)
}

// sum finalizes the key and returns the hasher to the scratch pool; the
// keyWriter must not be used afterwards.
func (k keyWriter) sum(engine string) string {
	var d [sha256.Size]byte
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], k.h.Sum(d[:0]))
	putHasher(k.h)
	return engine + ":" + string(hx[:])
}

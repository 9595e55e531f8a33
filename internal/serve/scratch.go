package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"hash"
	"sync"
)

// Scratch pooling for the per-request hot path: sha256 states for cache
// keys, request-body buffers, and buffer+encoder pairs for responses.

// hashers recycles sha256 states across cache-key computations.
var hashers = sync.Pool{New: func() any { return sha256.New() }}

func getHasher() hash.Hash {
	h := hashers.Get().(hash.Hash)
	h.Reset()
	return h
}

func putHasher(h hash.Hash) { hashers.Put(h) }

// jsonScratch is a reusable response-encoding buffer with an encoder
// permanently bound to it, so neither is reallocated per response.
type jsonScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

func newJSONScratch() *jsonScratch {
	s := &jsonScratch{}
	s.enc = json.NewEncoder(&s.buf)
	return s
}

var encoders = sync.Pool{New: func() any { return newJSONScratch() }}

// maxRetainedEncodeBuf bounds the capacity a pooled encode buffer may
// keep; a one-off giant response must not pin its buffer forever.
const maxRetainedEncodeBuf = 1 << 20

func getEncoder() *jsonScratch {
	s := encoders.Get().(*jsonScratch)
	s.buf.Reset()
	return s
}

func putEncoder(s *jsonScratch) {
	if s.buf.Cap() <= maxRetainedEncodeBuf {
		encoders.Put(s)
	}
}

// bodyBufs recycles the buffers request bodies are read into.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBodyBuf() *bytes.Buffer {
	b := bodyBufs.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBodyBuf(b *bytes.Buffer) {
	if b.Cap() <= maxRetainedEncodeBuf {
		bodyBufs.Put(b)
	}
}

// encodeBody renders v as a response body: the encoder's output, newline
// included, in a slice of its own.
func encodeBody(v any) ([]byte, error) {
	s := getEncoder()
	defer putEncoder(s)
	if err := s.enc.Encode(v); err != nil {
		return nil, err
	}
	return append([]byte(nil), s.buf.Bytes()...), nil
}

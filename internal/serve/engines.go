package serve

import (
	"context"
	"errors"
	"net/http"

	"partree"
	"partree/internal/pool"
	"partree/internal/tree"
)

// engineTable is the one definition of every served engine. Its rows
// derive the /v1 routes, the handlers, the batchers, the /statsz and
// /metricsz engine labels, and CanonicalKey, through which the cluster
// gateway routes; serving another engine takes one row here plus its
// façade …BatchContext function.
var engineTable = [...]engineSpec{
	&engineDef[[]float64, partree.HuffmanBatchResult]{
		name: "huffman", path: "/v1/huffman",
		parse: parseCoding, release: pool.PutFloat64s,
		batch: partree.HuffmanBatchContext,
		render: func(probs []float64, res partree.HuffmanBatchResult) (any, *apiError) {
			if res.Err != nil {
				return nil, badRequest("engine", "%v", res.Err)
			}
			return &codingResponse{N: len(probs), Lengths: res.Lengths, Codes: codeStrings(res.Codes), AvgBits: res.Cost}, nil
		},
	},
	&engineDef[[]float64, partree.ShannonFanoBatchResult]{
		name: "shannonfano", path: "/v1/shannonfano",
		parse: parseCoding, release: pool.PutFloat64s,
		batch: partree.ShannonFanoBatchContext,
		render: func(probs []float64, res partree.ShannonFanoBatchResult) (any, *apiError) {
			if res.Err != nil {
				return nil, badRequest("engine", "%v", res.Err)
			}
			return &codingResponse{N: len(probs), Lengths: res.Lengths, Codes: codeStrings(res.Codes), AvgBits: res.AverageLength}, nil
		},
	},
	&engineDef[[]int, partree.PatternBatchResult]{
		name: "treefromdepths", path: "/v1/treefromdepths",
		parse: parseDepths,
		batch: partree.TreeFromDepthsBatchContext,
		render: func(_ []int, res partree.PatternBatchResult) (any, *apiError) {
			if res.Err != nil {
				// An unrealizable pattern is a valid query with a negative
				// answer, not a client error.
				if errors.Is(res.Err, partree.ErrNoTree) {
					return &depthsResponse{Realizable: false, Reason: res.Err.Error()}, nil
				}
				return nil, badRequest("engine", "%v", res.Err)
			}
			shape, symbols := tree.Marshal(res.Tree)
			return &depthsResponse{Realizable: true, Shape: shape, Symbols: symbols}, nil
		},
	},
	&engineDef[*partree.BSTInstance, partree.BSTBatchResult]{
		name: "obst", path: "/v1/obst",
		// The instance aliases both pooled probability vectors.
		parse: parseOBST, release: func(in *partree.BSTInstance) {
			pool.PutFloat64s(in.Beta)
			pool.PutFloat64s(in.Alpha)
		},
		batch: partree.OptimalBSTBatchContext,
		render: func(in *partree.BSTInstance, res partree.BSTBatchResult) (any, *apiError) {
			shape, symbols := tree.Marshal(res.Tree)
			return &obstResponse{N: in.N(), Cost: res.Cost, Shape: shape, Symbols: symbols}, nil
		},
	},
	&engineDef[partree.LinCFLBatchJob, bool]{
		name: "lincfl", path: "/v1/lincfl/recognize",
		parse: parseLinCFL,
		batch: partree.RecognizeLinearBatchContext,
		render: func(_ partree.LinCFLBatchJob, accepted bool) (any, *apiError) {
			return &lincflResponse{Accepted: accepted}, nil
		},
	},
}

// engineDef describes one served engine: J is its batch job, R one job's
// result.
type engineDef[J, R any] struct {
	name, path string
	// parse decodes, validates and normalizes a request body into the job
	// the engine solves and its canonical cache key, hashed under the
	// engine name it is given. The handler and CanonicalKey both call it,
	// so the gateway's routing key is the backend's cache key.
	parse func(name string, body []byte, lim Limits) (J, string, *apiError)
	// release, when set, returns a parsed job's pooled buffers.
	release func(J)
	// batch is the façade …BatchContext entry point the batcher runs.
	batch func(context.Context, []J, ...partree.Options) ([]R, partree.Stats, error)
	// render maps one job's result to its response body, or to the
	// client error the engine reported for it.
	render func(J, R) (any, *apiError)
}

// engineSpec is an engineDef with its job and result types erased, so
// the table can hold every engine.
type engineSpec interface {
	route() (name, path string)
	canonicalKey(body []byte, lim Limits) (string, *apiError)
	start(s *Server, opts partree.Options) (engineHandler, engineBatcher)
}

// engineHandler answers one engine request from its already-read body
// and returns the 200 body it wrote, or nil when it wrote anything else.
type engineHandler func(w http.ResponseWriter, r *http.Request, body []byte) []byte

// engineBatcher is what the server needs of a running batcher.
type engineBatcher interface {
	Close()
	counters() BatcherCounters
}

func (d *engineDef[J, R]) route() (string, string) { return d.name, d.path }

func (d *engineDef[J, R]) canonicalKey(body []byte, lim Limits) (string, *apiError) {
	job, key, e := d.parse(d.name, body, lim)
	if e != nil {
		return "", e
	}
	if d.release != nil {
		d.release(job)
	}
	return key, nil
}

// start launches the engine's batcher on s, folding each run's Stats and
// trace into the server's accumulators, and returns its handler.
func (d *engineDef[J, R]) start(s *Server, opts partree.Options) (engineHandler, engineBatcher) {
	b := newBatcher(d.name, s.cfg.MaxBatch, s.cfg.Linger, s.cfg.MaxInflight,
		func(ctx context.Context, jobs []J) ([]R, error) {
			res, st, err := d.batch(ctx, jobs, opts)
			s.addStats(d.name, st)
			return res, err
		})
	b.observe = s.observeTrace
	return func(w http.ResponseWriter, r *http.Request, body []byte) []byte { return d.serve(s, b, w, r, body) }, b
}

// serve is every engine's handler: parse → canonical-key lookup
// (single-flight) → batcher → render and encode, once per flight →
// finish. It returns the body a 200 carried, nil otherwise.
func (d *engineDef[J, R]) serve(s *Server, b *batcher[J, R], w http.ResponseWriter, r *http.Request, body []byte) []byte {
	job, key, e := d.parse(d.name, body, s.cfg.Limits)
	if e != nil {
		s.served[d.name].Errors.Add(1)
		writeError(w, e)
		return nil
	}
	out, hit, err := s.cache.Do(r.Context(), key, func(ctx context.Context) ([]byte, error) {
		res, err := b.Submit(ctx, job)
		if err != nil {
			return nil, err
		}
		v, e := d.render(job, res)
		if e != nil {
			return nil, e
		}
		return encodeBody(v)
	})
	s.finish(w, r, d.name, out, hit, err)
	// The job's buffers go back to the arena only when no batch can still
	// hold them: this caller's own computation finished (err == nil), or
	// the answer came from the cache or another caller's flight (hit), so
	// this job never reached a batcher. After an error the batch may still
	// be executing with a reference to them (Submit's "slot outlives us"
	// path) — the request context need not be done yet, since the flight
	// times out on a timer of its own — so reuse would race; let the GC
	// take them instead.
	if d.release != nil && (err == nil || hit) {
		d.release(job)
	}
	if err != nil {
		return nil
	}
	return out
}

func codeStrings(codes []partree.Codeword) []string {
	out := make([]string, len(codes))
	for i, c := range codes {
		out[i] = c.String()
	}
	return out
}

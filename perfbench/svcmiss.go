package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"partree"
	"partree/internal/engine"
	"partree/internal/serve"
	"partree/internal/trace"
)

// svc-miss: one service (defaults, nproc workers) hit directly by one
// closed-loop caller. Every request is distinct, round-robin over the five
// engines, so each one decodes, normalizes, misses both caches, waits in a
// batcher, runs a serial oracle inside one PRAM statement and encodes JSON. Nothing is a
// gateway or a cache hit: routing and cache changes predict no change
// here, while a per-engine regression shows.
const (
	// svcRateCap is the rate, in ops/s, the generated inputs are sized
	// for: three times the fastest run seen on a 2-CPU host (3.9k ops/s).
	// Running out of inputs before the deadline fails the run.
	svcRateCap = 12000
	svcWarm    = 400 // distinct warm-up requests, never reused as timed ones
	svcProbe   = 60  // jobs per engine in the traced run's probes
	// svcMemAt is the first heap mark; the last, 10k, comes within 13 s
	// at the slowest rate seen (770 ops/s).
	svcMemAt = 5000
	// svcCallers is one closed-loop caller. With two, batches of one and
	// two jobs alternate as the callers' timing drifts, and the CPU per
	// request moved by 0.2 of its median over ten runs; with one it moved
	// by 0.02 over five.
	svcCallers = 1
)

// svcJobs makes n distinct requests, round-robin over the engines. The
// oracles run on a pool of base requests, and each request is a base
// transformed in a way whose effect on the answer is known: rotated
// weights, a root over two checked subtree patterns, a mirrored search
// problem, or mirror-image letter swaps.
func svcJobs(rng *rand.Rand, n int) []job {
	per := n/len(svcEngines) + 1
	bases := func(count int, mk func(k int) job) []job {
		out := make([]job, count)
		for k := range out {
			out[k] = mk(k)
		}
		return out
	}
	nRot := (per + 255) / 256
	huf := bases(nRot, func(int) job { return codingJob(intWeights(rng, 256, 1, 1000), 1, false) })
	sf := bases(nRot, func(int) job { return codingJob(intWeights(rng, 256, 1, 1000), 1, true) })
	nHalf := int(math.Sqrt(float64(per))) + 1
	halves := make([][]uint16, nHalf)
	for k := range halves {
		halves[k] = subtreeDepths(rng, 128)
	}
	cfl := bases(64, func(k int) job { return cflJob(palindromeWord(rng, 97, k%2 == 0)) })

	jobs := make([]job, 0, n)
	var lastOBST job
	for i := 0; len(jobs) < n; i++ {
		k := i / len(svcEngines)
		switch i % len(svcEngines) {
		case kHuffman:
			jobs = append(jobs, huf[k%nRot].rotated(k/nRot))
		case kShannonFano:
			jobs = append(jobs, sf[k%nRot].rotated(k/nRot))
		case kDepths:
			jobs = append(jobs, depthsJob(halves[k%nHalf], halves[k/nHalf%nHalf]))
		case kOBST:
			if k%2 == 0 {
				lastOBST = obstJob(intWeights(rng, 48, 1, 1000), intWeights(rng, 49, 0, 1000))
				jobs = append(jobs, lastOBST)
			} else {
				jobs = append(jobs, lastOBST.mirrored())
			}
		default:
			jobs = append(jobs, cfl[k%len(cfl)].flipped(rng))
		}
	}
	return jobs
}

// envSpans is what a traced request's envelope says about its batch:
// when the batch run started after admission, how long it ran, and how
// many jobs it carried.
type envSpans struct {
	queue, batch time.Duration
	jobs         int
}

type svcMiss struct {
	p    params
	warm []job
	jobs []job // timed op i uses jobs[i]

	srv *serve.Server
	l   *loopback
	cl  *client

	clientSp, beSp spanTable
	env            []envSpans
}

func newSvcMiss(p params) *workload {
	rng := rand.New(rand.NewSource(p.seed))
	ops := int(p.seconds * svcRateCap)
	all := svcJobs(rng, svcWarm+ops)
	s := &svcMiss{p: p, warm: all[:svcWarm], jobs: all[svcWarm:]}
	if p.traced {
		s.clientSp, s.beSp, s.env = make(spanTable, ops), make(spanTable, ops), make([]envSpans, ops)
	}
	return &workload{sys: s, ops: ops, callers: svcCallers, memAt: svcMemAt, ref: httpRef, opName: "HTTP request to the service"}
}

func (s *svcMiss) setup() error {
	s.srv = serve.New(serve.Config{Workers: s.p.nproc, Logf: logf})
	h := s.srv.Handler()
	if s.p.traced {
		h = s.beSp.wrap(h)
	}
	l, err := listen(h)
	if err != nil {
		s.srv.Close()
		s.srv = nil
		return err
	}
	s.l = l
	s.cl = newClient(s.p.nproc)
	parallel(s.p.nproc, len(s.warm), func(i int) {
		resp, _, err := s.cl.postJob(s.l.url, &s.warm[i], -1, false)
		if err == nil {
			err = s.warm[i].check(resp)
		}
		check(err)
	})
	return nil
}

func (s *svcMiss) teardown() {
	if s.l != nil {
		s.l.close()
		s.l = nil
	}
	if s.cl != nil {
		s.cl.close()
	}
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
}

// envelope is the wire form of a traced response.
type envelope struct {
	Trace struct {
		Spans []struct {
			Cat     string  `json:"cat"`
			StartUS float64 `json:"start_us"`
			DurUS   float64 `json:"dur_us"`
			Jobs    int     `json:"jobs"`
		} `json:"spans"`
	} `json:"trace"`
	Result json.RawMessage `json:"result"`
}

func usDur(us float64) time.Duration { return time.Duration(us * 1e3) }

func (s *svcMiss) op(i int, traced bool) (time.Duration, error) {
	jb := &s.jobs[i]
	id := -1
	if traced {
		id = i
	}
	resp, sp, err := s.cl.postJob(s.l.url, jb, id, traced)
	if err != nil {
		return sp.dur(), err
	}
	if traced {
		s.clientSp[i] = sp
		var env envelope
		if err := json.Unmarshal(resp, &env); err != nil {
			return sp.dur(), fmt.Errorf("decoding trace envelope: %v", err)
		}
		for _, sp := range env.Trace.Spans {
			if sp.Cat == trace.CatBatch {
				// Span offsets count from the request's admission.
				s.env[i] = envSpans{queue: usDur(sp.StartUS), batch: usDur(sp.DurUS), jobs: sp.Jobs}
			}
		}
		resp = env.Result
	}
	return sp.dur(), jb.check(resp)
}

func (s *svcMiss) counters(m map[string]float64) { serveCounters(m, []*serve.Server{s.srv}) }

func (s *svcMiss) layers(out metrics, d deltas, recs []opRecord) {
	serveLayers(out, d.all)

	var client, httpSelf, handler, queue, batch []time.Duration
	var traced, batches float64
	for i, r := range recs {
		c, be, env := s.clientSp[i], s.beSp[i], s.env[i]
		if !r.traced || !r.ok || c.end == 0 || be.end == 0 || env.jobs == 0 {
			continue
		}
		client = append(client, c.dur())
		httpSelf = append(httpSelf, c.dur()-be.dur())
		handler = append(handler, be.dur()-env.queue-env.batch)
		queue = append(queue, env.queue)
		batch = append(batch, env.batch)
		traced++
		batches += 1 / float64(env.jobs) // each of a batch's jobs sees it once
	}
	selfTimes(out, medianUS(client), []layerSelf{
		{"http.client_overhead_us", httpSelf},
		{"serve.handler_us", handler},
		{"serve.queue_wait_us", queue},
		{"serve.batch_run_us", batch},
	})
	out.set("serve.avg_batch", traced/batches)

	// Probes outside the load: the service's decode (CanonicalKey) and
	// the façade batch call each engine's batcher makes, on one
	// workload job at a time.
	rng := rand.New(rand.NewSource(s.p.seed ^ 0x5eed))
	opts := partree.Options{Workers: s.p.nproc, Grain: engine.GrainBatch()}
	for e, name := range svcEngines {
		var dec []time.Duration
		for k := range s.jobs {
			jb := &s.jobs[k]
			if int(jb.kind) != e {
				continue
			}
			if len(dec) >= 3*svcProbe {
				break
			}
			body := jb.appendBody(nil)
			for pass := 0; pass < 3; pass++ {
				t0 := time.Now()
				_, err := serve.CanonicalKey(jb.path(), body, serve.Limits{})
				dec = append(dec, time.Since(t0))
				check(err)
			}
		}
		out.set("serve.decode_us."+name, medianUS(dec))
		out.set("partree.batch_us."+name, medianUS(batchProbe(rng, e, opts)))
	}
}

// batchProbe times the façade batch entry point engine e's batcher
// calls, on single fresh jobs of the workload's shape, and checks each
// answer against the same oracle the request checks use.
func batchProbe(rng *rand.Rand, e int, opts partree.Options) []time.Duration {
	ctx := context.Background()
	var out []time.Duration
	for k := 0; k < svcProbe; k++ {
		var err error
		var t0 time.Time
		switch e {
		case kHuffman, kShannonFano:
			w := intWeights(rng, 256, 1, 1000)
			p := probs(w)
			if e == kHuffman {
				want := partree.HuffmanCost(p)
				t0 = time.Now()
				res, _, cerr := partree.HuffmanBatchContext(ctx, [][]float64{p}, opts)
				out = append(out, time.Since(t0))
				err = cerr
				if err == nil && (res[0].Err != nil || !near(res[0].Cost, want)) {
					err = fmt.Errorf("huffman batch: cost %v, optimum %v (%v)", res[0].Cost, want, res[0].Err)
				}
			} else {
				want := sfLengths(w)
				t0 = time.Now()
				res, _, cerr := partree.ShannonFanoBatchContext(ctx, [][]float64{p}, opts)
				out = append(out, time.Since(t0))
				err = cerr
				if err == nil && (res[0].Err != nil || !equalInts(res[0].Lengths, widen8(want))) {
					err = fmt.Errorf("shannonfano batch: lengths differ from ⌈log₂ 1/p⌉ (%v)", res[0].Err)
				}
			}
		case kDepths:
			d := widen(treeDepths(rng, 256))
			t0 = time.Now()
			res, _, cerr := partree.TreeFromDepthsBatchContext(ctx, [][]int{d}, opts)
			out = append(out, time.Since(t0))
			err = cerr
			if err == nil && (res[0].Err != nil || !equalInts(res[0].Tree.LeafDepths(), d)) {
				err = fmt.Errorf("treefromdepths batch: leaf depths differ from the pattern (%v)", res[0].Err)
			}
		case kOBST:
			in := bstInstance(intWeights(rng, 48, 1, 1000), intWeights(rng, 49, 0, 1000))
			want, _ := partree.OptimalBST(in)
			t0 = time.Now()
			res, _, cerr := partree.OptimalBSTBatchContext(ctx, []*partree.BSTInstance{in}, opts)
			out = append(out, time.Since(t0))
			err = cerr
			if err == nil && !near(res[0].Cost, want) {
				err = fmt.Errorf("obst batch: cost %v, optimum %v", res[0].Cost, want)
			}
		default:
			w := palindromeWord(rng, 97, rng.Intn(2) == 0)
			want := partree.RecognizeLinear(palindrome, w)
			t0 = time.Now()
			res, _, cerr := partree.RecognizeLinearBatchContext(ctx, []partree.LinCFLBatchJob{{Grammar: palindrome, Word: w}}, opts)
			out = append(out, time.Since(t0))
			err = cerr
			if err == nil && res[0] != want {
				err = fmt.Errorf("lincfl batch: answer differs from the sequential recognizer")
			}
		}
		check(err)
	}
	return out
}

func (s *svcMiss) writeSpans(enc *json.Encoder) error {
	return writeJSONLines(enc, len(s.clientSp), func(i int) any {
		if s.clientSp[i].end == 0 {
			return nil
		}
		e := s.env[i]
		return map[string]any{"op": i, "client": spanUS(s.clientSp[i]), "backend": spanUS(s.beSp[i]),
			"queue_us": float64(e.queue) / 1e3, "batch_us": float64(e.batch) / 1e3, "batch_jobs": e.jobs}
	})
}

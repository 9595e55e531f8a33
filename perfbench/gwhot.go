package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"partree/internal/cluster"
	"partree/internal/serve"
)

// gw-hot: the cluster gateway (defaults, hedging off) over two
// single-worker backends, all on loopback. Requests alternate
// /v1/huffman and /v1/shannonfano over 64-symbol integer weights: 18 of
// every 20 repeat a body of the 512-vector hot set byte for byte (the
// backends' raw replay cache answers), one respells a hot vector with
// every weight multiplied by a fresh integer (it misses the raw cache
// and hits the canonical LRU), and one is fresh (batcher and kernel).
//
// Hedging is off because the backends share the benchmark's cores: a
// hedge takes CPU from its own primary.
const (
	gwHotSet     = 512
	gwSymbols    = 64
	gwRateCap    = 25000 // ops/s of inputs: 3x the fastest run seen on a 2-CPU host (7.9k/s)
	gwBackends   = 2
	gwMemAt      = 20000 // first heap mark; the last, 40k, comes within 20 s at 2k ops/s
	gwRescaleMod = 7     // i%20 == 7: respelled hot vector
	gwFreshMod   = 17    // i%20 == 17: fresh vector
)

type gwHot struct {
	p        params
	hot      []job
	verified [][]byte // checked response of each hot job, from the warm-up
	pick     []uint16 // hot job of timed op i
	rescaled []job    // timed op i%20 == gwRescaleMod uses rescaled[i/20]
	rescHot  []uint16 // the hot job each respelling repeats
	fresh    []job    // timed op i%20 == gwFreshMod uses fresh[i/20]

	backends []*serve.Server
	bls      []*loopback
	gw       *cluster.Gateway
	gl       *loopback
	gwTr     *http.Transport
	cl       *client

	clientSp, gwSp, beSp spanTable
}

func newGwHot(p params) *workload {
	rng := rand.New(rand.NewSource(p.seed))
	ops := int(p.seconds * gwRateCap)
	g := &gwHot{p: p, verified: make([][]byte, gwHotSet), pick: make([]uint16, ops)}
	for j := 0; j < gwHotSet; j++ {
		g.hot = append(g.hot, codingJob(intWeights(rng, gwSymbols, 1, 1000), 1, j%2 == 1))
	}
	for i := range g.pick {
		g.pick[i] = uint16(rng.Intn(gwHotSet))
	}
	// Fresh requests are rotations of fresh base vectors: the oracle
	// runs once per base, and every rotation is a distinct request.
	nFresh := ops/20 + 1
	bases := make([]job, (nFresh+gwSymbols-1)/gwSymbols)
	for b := range bases {
		bases[b] = codingJob(intWeights(rng, gwSymbols, 1, 1000), 1, b%2 == 1)
	}
	for k := 0; k < nFresh; k++ {
		j := rng.Intn(gwHotSet)
		g.rescaled = append(g.rescaled, g.hot[j].respelled(2+rng.Int63n(1<<20)))
		g.rescHot = append(g.rescHot, uint16(j))
		g.fresh = append(g.fresh, bases[k%len(bases)].rotated(k/len(bases)))
	}
	if p.traced {
		g.clientSp, g.gwSp, g.beSp = make(spanTable, ops), make(spanTable, ops), make(spanTable, ops)
	}
	return &workload{sys: g, ops: ops, callers: p.nproc, memAt: gwMemAt, ref: httpRef, opName: "HTTP request through the gateway"}
}

func (g *gwHot) setup() error {
	var urls []string
	for b := 0; b < gwBackends; b++ {
		s := serve.New(serve.Config{Workers: 1, Logf: logf})
		h := s.Handler()
		if g.p.traced {
			h = g.beSp.wrap(h)
		}
		l, err := listen(h)
		if err != nil {
			s.Close()
			return err
		}
		g.backends = append(g.backends, s)
		g.bls = append(g.bls, l)
		urls = append(urls, l.url)
	}
	g.gwTr = newTransport(g.p.nproc)
	var rt http.RoundTripper = g.gwTr
	if g.p.traced {
		rt = tagTransport{g.gwTr}
	}
	g.gw = cluster.New(cluster.Config{Backends: urls, DisableHedging: true, Transport: rt, Logf: logf})
	h := g.gw.Handler()
	if g.p.traced {
		h = g.gwSp.wrap(h)
	}
	l, err := listen(h)
	if err != nil {
		return err
	}
	g.gl = l
	g.cl = newClient(g.p.nproc)

	// Warm-up: one sweep of the hot set, which fills the raw replay
	// caches the timed phase then hits.
	parallel(g.p.nproc, len(g.hot), func(j int) {
		resp, _, err := g.cl.postJob(g.gl.url, &g.hot[j], -1, false)
		if err == nil {
			err = g.hot[j].check(resp)
		}
		if check(err) {
			g.verified[j] = resp
		}
	})
	return nil
}

func (g *gwHot) teardown() {
	if g.gl != nil {
		g.gl.close()
		g.gl = nil
	}
	if g.gw != nil {
		g.gw.Close()
		g.gw = nil
	}
	if g.gwTr != nil {
		g.gwTr.CloseIdleConnections()
	}
	if g.cl != nil {
		g.cl.close()
	}
	for i, l := range g.bls {
		l.close()
		g.backends[i].Close()
	}
	g.bls, g.backends = nil, nil
}

func (g *gwHot) op(i int, traced bool) (time.Duration, error) {
	var jb *job
	var want []byte
	switch i % 20 {
	case gwRescaleMod:
		jb, want = &g.rescaled[i/20], g.verified[g.rescHot[i/20]]
	case gwFreshMod:
		jb = &g.fresh[i/20]
	default:
		jb, want = &g.hot[g.pick[i]], g.verified[g.pick[i]]
	}
	id := -1
	if traced {
		id = i
	}
	resp, sp, err := g.cl.postJob(g.gl.url, jb, id, false)
	if traced {
		g.clientSp[i] = sp
	}
	if err != nil {
		return sp.dur(), err
	}
	// A repeat must answer with the very bytes checked in the warm-up;
	// anything else gets the full check.
	if want != nil && bytes.Equal(resp, want) {
		return sp.dur(), nil
	}
	return sp.dur(), jb.check(resp)
}

func (g *gwHot) counters(m map[string]float64) {
	serveCounters(m, g.backends)
	v := g.gw.View()
	m["cluster.failovers"] = float64(v.Failovers)
	m["cluster.proxied_errors"] = float64(v.ProxiedErr)
	for i, b := range v.Backends {
		m[fmt.Sprintf("cluster.routed.%d", i)] = float64(b.Routed)
	}
}

// serveCounters sums the backends' cumulative request-path counters.
func serveCounters(m map[string]float64, backends []*serve.Server) {
	for _, s := range backends {
		snap := s.Snapshot()
		m["serve.fast_hits"] += float64(snap.FastPath.Hits)
		m["serve.fast_misses"] += float64(snap.FastPath.Misses)
		m["serve.cache_hits"] += float64(snap.Cache.Hits)
		m["serve.cache_misses"] += float64(snap.Cache.Misses)
		m["serve.cache_evictions"] += float64(snap.Cache.Evictions + snap.FastPath.Evictions)
		m["serve.collapses"] += float64(snap.Cache.Collapses)
		m["serve.shed"] += float64(snap.Shed)
	}
}

// serveLayers sets the serve counter metrics both service workloads have.
func serveLayers(out metrics, a map[string]float64) {
	out.set("serve.fastpath_hit_ratio", a["serve.fast_hits"]/(a["serve.fast_hits"]+a["serve.fast_misses"]))
	out.set("serve.cache_hit_ratio", a["serve.cache_hits"]/(a["serve.cache_hits"]+a["serve.cache_misses"]))
	out.set("serve.cache_evictions", a["serve.cache_evictions"])
	out.set("serve.shed", a["serve.shed"])
	out.set("serve.singleflight_collapses", a["serve.collapses"])
}

func (g *gwHot) layers(out metrics, d deltas, recs []opRecord) {
	a := d.all
	serveLayers(out, a)
	out.set("cluster.failovers", a["cluster.failovers"])
	out.set("cluster.proxied_errors", a["cluster.proxied_errors"])
	var routed, most float64
	for b := 0; b < gwBackends; b++ {
		r := a[fmt.Sprintf("cluster.routed.%d", b)]
		routed += r
		most = max(most, r)
	}
	out.set("cluster.backend_share_max", most/routed)

	// Self times over the traced ops whose three spans were all recorded.
	var client, httpSelf, gwSelf, handler []time.Duration
	for i, r := range recs {
		c, gw, be := g.clientSp[i], g.gwSp[i], g.beSp[i]
		if !r.traced || !r.ok || c.end == 0 || gw.end == 0 || be.end == 0 {
			continue
		}
		client = append(client, c.dur())
		httpSelf = append(httpSelf, c.dur()-gw.dur())
		gwSelf = append(gwSelf, gw.dur()-be.dur())
		handler = append(handler, be.dur())
	}
	selfTimes(out, medianUS(client), []layerSelf{
		{"http.client_overhead_us", httpSelf},
		{"cluster.self_us", gwSelf},
		{"serve.handler_us", handler},
	})

	// The gateway's routing decode, timed on the workload's own bodies.
	var dec []time.Duration
	for pass := 0; pass < 3; pass++ {
		for _, jb := range g.hot {
			body := jb.appendBody(nil)
			t0 := time.Now()
			_, err := serve.CanonicalKey(jb.path(), body, serve.Limits{})
			dec = append(dec, time.Since(t0))
			check(err)
		}
	}
	out.set("cluster.route_decode_us", medianUS(dec))
}

// layerSelf is one layer's per-op self times.
type layerSelf struct {
	name string
	self []time.Duration
}

// selfTimes sets each layer's median self time and the residual: the
// median client span minus the sum of the layers' median self times,
// which is how far the per-layer medians fall short of (or overshoot)
// the end-to-end median.
func selfTimes(out metrics, clientUS float64, layers []layerSelf) {
	sum := 0.0
	fmt.Printf("self time (median over %d traced ops):\n", len(layers[0].self))
	for _, l := range layers {
		v := medianUS(l.self)
		sum += v
		out.set(l.name, v)
		fmt.Printf("  %-30s %10.1f us\n", l.name, v)
	}
	out.set("trace.residual_us", clientUS-sum)
	fmt.Printf("  %-30s %10.1f us of a %.1f us client span\n", "residual", clientUS-sum, clientUS)
}

func (g *gwHot) writeSpans(enc *json.Encoder) error {
	return writeJSONLines(enc, len(g.clientSp), func(i int) any {
		if g.clientSp[i].end == 0 {
			return nil
		}
		return map[string]any{"op": i, "client": spanUS(g.clientSp[i]), "gateway": spanUS(g.gwSp[i]), "backend": spanUS(g.beSp[i])}
	})
}

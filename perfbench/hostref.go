package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"
)

// A host reference is a fixed piece of work, independent of partree, whose
// CPU cost tracks how fast the shared host runs that kind of work at the
// moment. On a shared two-core guest the same op costs up to 1.7 times
// more CPU time in one minute than in another, as other guests come and
// go. A run times its reference between the timed ops and scales its CPU
// costs to the reference's nominal speed.
type reference interface {
	// probe runs the reference work once and returns its CPU time per unit.
	probe() (time.Duration, error)
	// nominal is the reference's CPU time per unit at the nominal speed.
	nominal() time.Duration
	close()
}

// refKind names a workload's reference: the HTTP workloads spend their
// CPU time in net/http, JSON and goroutine hand-offs; lib-par spends it in
// computation on all threads.
type refKind int

const (
	httpRef refKind = iota
	computeRef
)

// refProbes is how many probes a set-up process makes after its set-up.
const refProbes = 5

// newReference makes the workload's reference. The echo reference has as
// many callers as the workload, and the compute reference a thread per
// core, as lib-par has a PRAM worker per core: a shared host slows work on
// two busy cores more, and less steadily, than work on one.
func (w *workload) newReference(p params) (reference, error) {
	if w.ref == computeRef {
		return computeReference{threads: p.nproc}, nil
	}
	return newEchoReference(w.callers)
}

// scaled returns cpu at the reference's nominal speed, given the
// reference's probes taken around it.
func scaled(cpu time.Duration, ref reference, probes []time.Duration) float64 {
	ms := make([]float64, len(probes))
	for i, p := range probes {
		ms[i] = float64(p)
	}
	return cpu.Seconds() * float64(ref.nominal()) / median(ms)
}

// echoReference is a plain net/http server on loopback that decodes a
// 64-integer JSON body, sorts it and encodes it back; a probe sends it
// echoRequests requests from closed-loop callers.
type echoReference struct {
	l       *loopback
	tr      *http.Transport
	hc      *http.Client
	body    []byte
	callers int
}

const echoRequests = 100

type echoBody struct {
	Weights []int64 `json:"weights"`
}

func newEchoReference(callers int) (*echoReference, error) {
	l, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b echoBody
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		slices.Sort(b.Weights)
		_ = json.NewEncoder(w).Encode(&b)
	}))
	if err != nil {
		return nil, err
	}
	var b echoBody
	x := uint64(88172645463325252)
	for i := 0; i < 64; i++ {
		x = xorshift(x)
		b.Weights = append(b.Weights, int64(x%1000+1))
	}
	body, _ := json.Marshal(&b) // cannot fail for a slice of integers
	tr := newTransport(callers)
	return &echoReference{l: l, tr: tr, hc: &http.Client{Transport: tr, Timeout: 10 * time.Second},
		body: body, callers: callers}, nil
}

func (e *echoReference) nominal() time.Duration { return 120 * time.Microsecond }

func (e *echoReference) probe() (time.Duration, error) {
	c0 := cpuTime()
	errs := make([]error, e.callers)
	var wg sync.WaitGroup
	for c := 0; c < e.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < echoRequests/e.callers && errs[c] == nil; i++ {
				errs[c] = e.post()
			}
		}(c)
	}
	wg.Wait()
	cpu := cpuTime() - c0
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("host reference: %w", err)
		}
	}
	return cpu / time.Duration(echoRequests/e.callers*e.callers), nil
}

func (e *echoReference) post() error {
	resp, err := e.hc.Post(e.l.url, "application/json", bytes.NewReader(e.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("echo answered %s", resp.Status)
	}
	return nil
}

func (e *echoReference) close() {
	e.tr.CloseIdleConnections()
	e.l.close()
}

// computeReference fills and probes small fresh maps on every thread at
// once: hashing, memory traffic, allocation and the collector.
type computeReference struct{ threads int }

const computeRounds = 40

func (c computeReference) nominal() time.Duration { return 10 * time.Millisecond }

func (c computeReference) probe() (time.Duration, error) {
	c0 := cpuTime()
	sums := make([]uint64, c.threads)
	var wg sync.WaitGroup
	for t := 0; t < c.threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			x := uint64(t)*0x9E3779B97F4A7C15 + 1
			for r := 0; r < computeRounds; r++ {
				m := make(map[uint64]uint64, 64)
				for i := 0; i < 2048; i++ {
					x = xorshift(x)
					m[x&1023] += x
				}
				for k, v := range m {
					sums[t] += k ^ v
				}
			}
		}(t)
	}
	wg.Wait()
	return cpuTime() - c0, nil
}

func (c computeReference) close() {}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

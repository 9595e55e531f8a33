package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// logf sends the servers' and gateway's diagnostics to standard error,
// keeping standard output for the report.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// loopback is one HTTP server on a loopback listener.
type loopback struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &loopback{
		srv:  &http.Server{Handler: h, ErrorLog: log.New(os.Stderr, "perfbench http: ", 0)},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // always http.ErrServerClosed once close has run
	}()
	return l, nil
}

// close stops the server, waiting for its handlers to return.
func (l *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close() // Shutdown timed out; drop the stragglers
	}
	<-l.done
}

// newTransport allows at most conns connections per host.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
}

// Headers the benchmark sets on its own requests.
const (
	idHeader    = "X-Perfbench-Op" // links a request's spans across layers
	traceHeader = "X-Partree-Trace"
)

type client struct {
	tr *http.Transport
	hc *http.Client
}

func newClient(conns int) *client {
	tr := newTransport(conns)
	// The timeout turns a stuck request into a failed op instead of a hung
	// run.
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

// post sends one request and returns the body of a 200 response; any
// other status is an error. id >= 0 tags the request for span linking;
// envelope asks the service for its trace envelope.
func (c *client) post(url string, body []byte, id int, envelope bool) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id >= 0 {
		req.Header.Set(idHeader, strconv.Itoa(id))
	}
	if envelope {
		req.Header.Set(traceHeader, "1")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, out)
	}
	return out, nil
}

// postJob spells out the job's body and posts it to the server at base,
// returning the response and the client span around the call.
func (c *client) postJob(base string, jb *job, id int, envelope bool) ([]byte, span, error) {
	body := jb.appendBody(make([]byte, 0, 1536))
	start := now()
	resp, err := c.post(base+jb.path(), body, id, envelope)
	return resp, span{start, now()}, err
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// parallel runs f(0..n-1) on the given number of goroutines and returns
// when all calls have.
func parallel(workers, n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// epoch is the origin of every recorded span.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// span is one layer's interval for one op; end == 0 means not recorded.
type span struct{ start, end time.Duration }

func (s span) dur() time.Duration { return s.end - s.start }

// spanTable holds one layer's span per timed op, indexed by op. Each op
// writes only its own slot, and the table is read after every server has
// shut down.
type spanTable []span

type opKey struct{}

// wrap records the span of every request to h that carries an op tag,
// and puts the tag on the request context so the gateway's outgoing
// requests can carry it on (see tagTransport).
func (t spanTable) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tag := r.Header.Get(idHeader)
		id, err := strconv.Atoi(tag)
		if err != nil || id < 0 || id >= len(t) {
			h.ServeHTTP(w, r)
			return
		}
		start := now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), opKey{}, tag)))
		t[id] = span{start, now()}
	})
}

// tagTransport copies the op tag from the request context onto the
// request, linking the gateway's backend call to the client's op.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if tag, ok := r.Context().Value(opKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(idHeader, tag)
	}
	return t.base.RoundTrip(r)
}

// writeJSONLines encodes one value per line.
func writeJSONLines(enc *json.Encoder, n int, row func(i int) any) error {
	for i := 0; i < n; i++ {
		if v := row(i); v != nil {
			if err := enc.Encode(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// spanUS renders a span as [start, end] in microseconds since the epoch.
func spanUS(s span) []float64 {
	if s.end == 0 {
		return nil
	}
	return []float64{float64(s.start) / 1e3, float64(s.end) / 1e3}
}

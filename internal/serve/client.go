package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// RetryPolicy bounds the client-side retry loop for shed (429) responses.
// The zero value gets sensible defaults from setDefaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first attempt included.
	// Defaults to 4.
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each further retry
	// doubles it. Defaults to 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps both the doubling and any server-provided
	// Retry-After. Defaults to 1s.
	MaxBackoff time.Duration
}

func (p *RetryPolicy) setDefaults() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
}

// PostJSONRetry POSTs a JSON body, retrying while the server sheds load
// with 429 Too Many Requests: exponential backoff from BaseBackoff,
// honouring a Retry-After seconds header when the server sends one
// (clamped to MaxBackoff), for at most MaxAttempts tries. Every other
// status — including 5xx — is returned to the caller unretried: the
// server's 504s and 503s carry per-request semantics (deadline, shutdown)
// that a blind retry would just repeat.
//
// ctx bounds the whole loop, backoff sleeps included. The final 429 is
// returned as the response (not an error) when attempts run out.
func PostJSONRetry(ctx context.Context, hc *http.Client, url string, body []byte, pol RetryPolicy) (*http.Response, error) {
	pol.setDefaults()
	backoff := pol.BaseBackoff
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= pol.MaxAttempts {
			return resp, nil
		}
		wait := backoff
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs >= 0 {
				// Clamp before scaling: a huge header value would wrap
				// the multiplication negative and retry at once.
				wait = pol.MaxBackoff
				if d := time.Duration(secs); d <= pol.MaxBackoff/time.Second {
					wait = d * time.Second
				}
			}
		}
		if wait > pol.MaxBackoff {
			wait = pol.MaxBackoff
		}
		// Drain so the transport can reuse the connection for the retry.
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, fmt.Errorf("serve: retry loop: %w", ctx.Err())
		}
		if backoff *= 2; backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
	}
}

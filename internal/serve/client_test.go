package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestPostJSONRetrySucceedsAfterShed(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	resp, err := PostJSONRetry(context.Background(), ts.Client(), ts.URL, []byte(`{}`),
		RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d, want 200", resp.StatusCode)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d requests, want 3 (two sheds + success)", n)
	}
}

func TestPostJSONRetryGivesUpAndReturnsFinal429(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	resp, err := PostJSONRetry(context.Background(), ts.Client(), ts.URL, []byte(`{}`),
		RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status %d, want the final 429 back", resp.StatusCode)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d requests, want exactly MaxAttempts=3", n)
	}
}

func TestPostJSONRetryDoesNotRetryServerErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusGatewayTimeout)
	}))
	defer ts.Close()

	resp, err := PostJSONRetry(context.Background(), ts.Client(), ts.URL, []byte(`{}`), RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504 passed through", resp.StatusCode)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d requests; 5xx must not be retried", n)
	}
}

func TestPostJSONRetryHonorsRetryAfter(t *testing.T) {
	// Every Retry-After here exceeds the 30ms MaxBackoff, so each retry
	// must wait the clamped 30ms: the huge values must not wrap the
	// seconds-to-Duration conversion negative and retry at once.
	for _, retryAfter := range []string{"1", "9999999999", "9223372036854775807"} {
		t.Run(retryAfter, func(t *testing.T) {
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if calls.Add(1) == 1 {
					w.Header().Set("Retry-After", retryAfter)
					w.WriteHeader(http.StatusTooManyRequests)
					return
				}
				w.WriteHeader(http.StatusOK)
			}))
			defer ts.Close()

			start := time.Now()
			resp, err := PostJSONRetry(context.Background(), ts.Client(), ts.URL, []byte(`{}`),
				RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 30 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			elapsed := time.Since(start)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d, want 200", resp.StatusCode)
			}
			if elapsed < 25*time.Millisecond {
				t.Errorf("retried after %v; Retry-After ignored (want >= ~30ms wait)", elapsed)
			}
			if elapsed > 500*time.Millisecond {
				t.Errorf("retried after %v; Retry-After not clamped to MaxBackoff", elapsed)
			}
		})
	}
}

func TestPostJSONRetryContextCancelDuringBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := PostJSONRetry(ctx, ts.Client(), ts.URL, []byte(`{}`),
		RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Minute})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from the backoff sleep", err)
	}
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fill inserts key→val pairs in order through Do.
func fill(t *testing.T, c *lruCache, keys ...string) {
	t.Helper()
	for _, k := range keys {
		k := k
		if _, _, err := c.Do(context.Background(), k, func(context.Context) (any, error) { return "val:" + k, nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// probe runs Do with a compute that fails the test if called.
func probe(t *testing.T, c *lruCache, key string) (any, bool) {
	t.Helper()
	v, hit, err := c.Do(context.Background(), key, func(context.Context) (any, error) {
		return "recomputed:" + key, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return v, hit
}

func TestCacheEvictionOrder(t *testing.T) {
	cases := []struct {
		name      string
		cap       int
		inserts   []string
		reAccess  []string // hits between inserts and the overflow insert
		overflow  []string
		wantLive  []string
		wantEvict []string
	}{
		{
			name:      "oldest first",
			cap:       2,
			inserts:   []string{"a", "b"},
			overflow:  []string{"c"},
			wantLive:  []string{"b", "c"},
			wantEvict: []string{"a"},
		},
		{
			name:      "hit refreshes recency",
			cap:       2,
			inserts:   []string{"a", "b"},
			reAccess:  []string{"a"},
			overflow:  []string{"c"},
			wantLive:  []string{"a", "c"},
			wantEvict: []string{"b"},
		},
		{
			name:      "repeated refresh chain",
			cap:       3,
			inserts:   []string{"a", "b", "c"},
			reAccess:  []string{"a", "b"},
			overflow:  []string{"d", "e"},
			wantLive:  []string{"b", "d", "e"},
			wantEvict: []string{"a", "c"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newLRUCache(tc.cap)
			fill(t, c, tc.inserts...)
			for _, k := range tc.reAccess {
				if _, hit := probe(t, c, k); !hit {
					t.Fatalf("reaccess of %q missed", k)
				}
			}
			fill(t, c, tc.overflow...)
			// Snapshot before probing: an eviction probe is itself a miss
			// that re-inserts and evicts again.
			cnt := c.counters()
			if cnt.Evictions != int64(len(tc.wantEvict)) {
				t.Errorf("evictions = %d, want %d", cnt.Evictions, len(tc.wantEvict))
			}
			if cnt.Size > tc.cap {
				t.Errorf("size %d exceeds capacity %d", cnt.Size, tc.cap)
			}
			for _, k := range tc.wantLive {
				if v, hit := probe(t, c, k); !hit {
					t.Errorf("%q should be cached, got %v", k, v)
				}
			}
			for _, k := range tc.wantEvict {
				// A miss recomputes: hit=false and the recomputed value.
				if v, hit := probe(t, c, k); hit {
					t.Errorf("%q should have been evicted, got cached %v", k, v)
				}
			}
		})
	}
}

func TestCacheCounterAccuracy(t *testing.T) {
	c := newLRUCache(2)
	fill(t, c, "a", "b") // 2 misses
	probe(t, c, "a")     // hit
	probe(t, c, "b")     // hit
	probe(t, c, "b")     // hit
	fill(t, c, "c")      // miss + eviction of a
	probe(t, c, "a")     // miss (recompute, evicts b)
	cnt := c.counters()
	want := CacheCounters{Size: 2, Capacity: 2, Hits: 3, Misses: 4, Evictions: 2}
	if cnt != want {
		t.Errorf("counters = %+v, want %+v", cnt, want)
	}
}

func TestCacheSingleflightCollapse(t *testing.T) {
	c := newLRUCache(8)
	var computes atomic.Int64
	gate := make(chan struct{})
	const waiters = 16

	var wg sync.WaitGroup
	hits := make([]bool, waiters)
	vals := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Do(context.Background(), "k", func(context.Context) (any, error) {
				computes.Add(1)
				<-gate
				return "expensive", nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], hits[i] = v, hit
		}(i)
	}
	// Wait until one flight is registered, then release it.
	deadline := time.Now().Add(2 * time.Second)
	for computes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("compute never started")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	owners := 0
	for i := range vals {
		if vals[i] != "expensive" {
			t.Errorf("waiter %d got %v", i, vals[i])
		}
		if !hits[i] {
			owners++
		}
	}
	if owners != 1 {
		t.Errorf("%d callers computed, want exactly 1", owners)
	}
	cnt := c.counters()
	// Late arrivals (after the value landed) count as plain hits, so
	// collapses + hits == waiters - 1.
	if cnt.Misses != 1 || cnt.Collapses+cnt.Hits != waiters-1 {
		t.Errorf("counters = %+v, want misses=1 and collapses+hits=%d", cnt, waiters-1)
	}
	if cnt.Collapses < 1 {
		t.Errorf("no collapse recorded: %+v", cnt)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := newLRUCache(4)
	wantErr := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, hit, err := c.Do(context.Background(), "k", func(context.Context) (any, error) {
			calls++
			return nil, wantErr
		})
		if !errors.Is(err, wantErr) || hit {
			t.Fatalf("round %d: hit=%v err=%v", i, hit, err)
		}
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (errors are not cached)", calls)
	}
	if cnt := c.counters(); cnt.Size != 0 || cnt.Misses != 2 {
		t.Errorf("counters = %+v", cnt)
	}
}

func TestCacheWaiterHonorsContext(t *testing.T) {
	c := newLRUCache(4)
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func(context.Context) (any, error) {
			close(started)
			<-gate
			return "late", nil
		})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, "k", func(context.Context) (any, error) { return "never", nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiter error = %v, want DeadlineExceeded", err)
	}
	close(gate)
}

// TestCacheWaiterRetriesAfterLeaderCanceled: a leader whose own context
// died hands its waiters nothing; a live waiter computes the value
// itself instead of inheriting the leader's context error.
func TestCacheWaiterRetriesAfterLeaderCanceled(t *testing.T) {
	c := newLRUCache(4)
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func(context.Context) (any, error) {
			close(started)
			<-gate
			return nil, context.Canceled
		})
	}()
	<-started

	done := make(chan struct{})
	var (
		v   any
		hit bool
		err error
	)
	go func() {
		defer close(done)
		v, hit, err = c.Do(context.Background(), "k", func(context.Context) (any, error) { return "fresh", nil })
	}()
	for c.counters().Collapses == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-done
	if err != nil || hit || v != "fresh" {
		t.Errorf("waiter got v=%v hit=%v err=%v, want its own fresh value", v, hit, err)
	}
}

func TestCacheNilPassthrough(t *testing.T) {
	var c *lruCache
	for i := 0; i < 2; i++ {
		v, hit, err := c.Do(context.Background(), "k", func(context.Context) (any, error) {
			return fmt.Sprintf("fresh-%d", i), nil
		})
		if err != nil || hit || v != fmt.Sprintf("fresh-%d", i) {
			t.Errorf("round %d: v=%v hit=%v err=%v", i, v, hit, err)
		}
	}
	if cnt := c.counters(); cnt != (CacheCounters{}) {
		t.Errorf("nil cache counters = %+v", cnt)
	}
}

// TestCacheFlightOutlivesCanceledLeader: a leader whose client hangs up
// (or a gateway's canceled losing hedge) still finishes the computation
// for the callers waiting on it, and the value lands in the cache, so the
// key is computed once.
func TestCacheFlightOutlivesCanceledLeader(t *testing.T) {
	c := newLRUCache(4)
	gate := make(chan struct{})
	started := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", func(ctx context.Context) (any, error) {
			close(started)
			<-gate
			return "computed", ctx.Err()
		})
		leaderErr <- err
	}()
	<-started

	type result struct {
		v   any
		hit bool
		err error
	}
	waiter := make(chan result)
	go func() {
		v, hit, err := c.Do(context.Background(), "k", func(context.Context) (any, error) { return "recomputed", nil })
		waiter <- result{v, hit, err}
	}()
	for c.counters().Collapses == 0 {
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	close(gate)
	if err := <-leaderErr; err != nil {
		t.Errorf("leader's computation saw %v, want it to outlive the leader's cancellation", err)
	}
	if r := <-waiter; r.err != nil || !r.hit || r.v != "computed" {
		t.Errorf("waiter got v=%v hit=%v err=%v, want the leader's flight value", r.v, r.hit, r.err)
	}
	if v, hit, _ := c.Do(context.Background(), "k", nil); !hit || v != "computed" {
		t.Errorf("later caller got v=%v hit=%v, want the cached flight value", v, hit)
	}
	if cnt := c.counters(); cnt.Misses != 1 {
		t.Errorf("counters = %+v, want one miss", cnt)
	}
}

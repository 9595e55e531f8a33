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
func fill(t *testing.T, c *responseCache, keys ...string) {
	t.Helper()
	for _, k := range keys {
		k := k
		if _, _, err := c.Do(context.Background(), k, func(context.Context) ([]byte, error) { return []byte("val:" + k), nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// probe runs Do with a compute that fails the test if called.
func probe(t *testing.T, c *responseCache, key string) ([]byte, bool) {
	t.Helper()
	v, hit, err := c.Do(context.Background(), key, func(context.Context) ([]byte, error) {
		return []byte("recomputed:" + key), nil
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
			c := newResponseCache(tc.cap)
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
	c := newResponseCache(2)
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

// TestCacheSingleflightCollapse holds the one computation open until
// every other caller has joined its flight, so the split is exact: one
// miss, waiters-1 collapses, and no plain hits.
func TestCacheSingleflightCollapse(t *testing.T) {
	c := newResponseCache(8)
	var computes atomic.Int64
	gate := make(chan struct{})
	const waiters = 16

	var wg sync.WaitGroup
	hits := make([]bool, waiters)
	vals := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
				computes.Add(1)
				<-gate
				return []byte("expensive"), nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], hits[i] = v, hit
		}(i)
	}
	// Release the flight only once every other caller waits on it.
	deadline := time.Now().Add(5 * time.Second)
	for c.counters().Collapses < waiters-1 {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("only %d of %d callers joined the flight", c.counters().Collapses, waiters-1)
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
		if string(vals[i]) != "expensive" {
			t.Errorf("waiter %d got %q", i, vals[i])
		}
		if !hits[i] {
			owners++
		}
	}
	if owners != 1 {
		t.Errorf("%d callers computed, want exactly 1", owners)
	}
	if cnt := c.counters(); cnt.Misses != 1 || cnt.Collapses != waiters-1 || cnt.Hits != 0 {
		t.Errorf("counters = %+v, want misses=1 collapses=%d hits=0", cnt, waiters-1)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := newResponseCache(4)
	wantErr := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, hit, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
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
	c := newResponseCache(4)
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			close(started)
			<-gate
			return []byte("late"), nil
		})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, "k", func(context.Context) ([]byte, error) { return []byte("never"), nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiter error = %v, want DeadlineExceeded", err)
	}
	close(gate)
}

// TestCacheWaiterRetriesAfterLeaderCanceled: a leader whose own context
// died hands its waiters nothing; a live waiter computes the value
// itself instead of inheriting the leader's context error.
func TestCacheWaiterRetriesAfterLeaderCanceled(t *testing.T) {
	c := newResponseCache(4)
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			close(started)
			<-gate
			return nil, context.Canceled
		})
	}()
	<-started

	done := make(chan struct{})
	var (
		v   []byte
		hit bool
		err error
	)
	go func() {
		defer close(done)
		v, hit, err = c.Do(context.Background(), "k", func(context.Context) ([]byte, error) { return []byte("fresh"), nil })
	}()
	for c.counters().Collapses == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-done
	if err != nil || hit || string(v) != "fresh" {
		t.Errorf("waiter got v=%v hit=%v err=%v, want its own fresh value", v, hit, err)
	}
}

func TestCacheNilPassthrough(t *testing.T) {
	var c *responseCache
	for i := 0; i < 2; i++ {
		v, hit, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			return []byte(fmt.Sprintf("fresh-%d", i)), nil
		})
		if err != nil || hit || string(v) != fmt.Sprintf("fresh-%d", i) {
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
	c := newResponseCache(4)
	gate := make(chan struct{})
	started := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", func(ctx context.Context) ([]byte, error) {
			close(started)
			<-gate
			return []byte("computed"), ctx.Err()
		})
		leaderErr <- err
	}()
	<-started

	type result struct {
		v   []byte
		hit bool
		err error
	}
	waiter := make(chan result)
	go func() {
		v, hit, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) { return []byte("recomputed"), nil })
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
	if r := <-waiter; r.err != nil || !r.hit || string(r.v) != "computed" {
		t.Errorf("waiter got v=%v hit=%v err=%v, want the leader's flight value", r.v, r.hit, r.err)
	}
	if v, hit, _ := c.Do(context.Background(), "k", nil); !hit || string(v) != "computed" {
		t.Errorf("later caller got v=%v hit=%v, want the cached flight value", v, hit)
	}
	if cnt := c.counters(); cnt.Misses != 1 {
		t.Errorf("counters = %+v, want one miss", cnt)
	}
}

// TestCacheKindsShareCapacity: raw and canonical entries fill one
// capacity in one recency order, each eviction is booked to the evicted
// entry's kind, and a raw entry outlives the canonical entry whose body
// it shares.
func TestCacheKindsShareCapacity(t *testing.T) {
	c := newResponseCache(3)
	ra, rb := rawKey{1}, rawKey{2}
	fill(t, c, "a")
	body, _ := probe(t, c, "a")
	c.put(ra, body)
	fill(t, c, "b")
	c.put(rb, []byte("val:b"))
	// Four entries in a capacity of three: the oldest, canonical "a", went.
	if cnt, raw := c.counters(), c.rawCounters(); cnt.Size != 1 || cnt.Evictions != 1 || raw.Size != 2 || raw.Evictions != 0 {
		t.Fatalf("canonical %+v, raw %+v; want canonical a evicted", cnt, raw)
	}
	if got := c.get(ra); string(got) != "val:a" || &got[0] != &body[0] {
		t.Errorf("raw entry after its canonical entry's eviction = %q, want the same body", got)
	}
	// With b's canonical entry refreshed, recomputing "a" evicts the least
	// recently used entry, raw b.
	if _, hit := probe(t, c, "b"); !hit {
		t.Error("canonical b missed")
	}
	if _, hit := probe(t, c, "a"); hit {
		t.Error("evicted canonical entry still hit")
	}
	if got := c.get(rb); got != nil {
		t.Errorf("raw b = %q, want it evicted", got)
	}
	want := [2]CacheCounters{
		{Size: 2, Capacity: 3, Hits: 2, Misses: 3, Evictions: 1},
		{Size: 1, Capacity: 3, Hits: 1, Misses: 1, Evictions: 1},
	}
	if got := [2]CacheCounters{c.counters(), c.rawCounters()}; got != want {
		t.Errorf("counters (canonical, raw) = %+v, want %+v", got, want)
	}
}

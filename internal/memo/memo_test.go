package memo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentGetBuildsOnce: many goroutines asking for one key run one
// build; everyone else is told they hit and receives the built value.
func TestConcurrentGetBuildsOnce(t *testing.T) {
	var c Cache[string, int]
	var builds, misses atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.Get("k", func() (int, error) {
				builds.Add(1)
				<-release
				return 42, nil
			})
			if !hit {
				misses.Add(1)
			}
			if v != 42 || err != nil {
				t.Errorf("Get = %d, %v; want 42, nil", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if builds.Load() != 1 || misses.Load() != 1 {
		t.Errorf("builds = %d, misses = %d; want 1 and 1", builds.Load(), misses.Load())
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestErrorsAreCached: a failed build is remembered like a value; the key
// is not rebuilt.
func TestErrorsAreCached(t *testing.T) {
	var c Cache[int, string]
	boom := errors.New("boom")
	builds := 0
	for i := 0; i < 3; i++ {
		_, hit, err := c.Get(1, func() (string, error) {
			builds++
			return "", boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("Get error = %v, want %v", err, boom)
		}
		if hit != (i > 0) {
			t.Errorf("request %d: hit = %t", i, hit)
		}
	}
	if builds != 1 {
		t.Errorf("builds = %d, want 1", builds)
	}
}

// TestLRUEvictsLeastRecentlyUsed: the bound holds, a hit refreshes recency,
// and each evicted entry reaches the hook exactly once with its value.
func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	var c Cache[int, string]
	c.SetMax(3)
	evicted := map[int]int{}
	c.OnEvict = func(k int, v string) {
		if v != fmt.Sprint(k) {
			t.Errorf("hook got %d -> %q", k, v)
		}
		evicted[k]++
	}
	get := func(k int) bool {
		_, hit, _ := c.Get(k, func() (string, error) { return fmt.Sprint(k), nil })
		return hit
	}
	for k := 0; k < 4; k++ { // 0 falls out
		get(k)
	}
	if !get(1) { // 2 becomes least recently used
		t.Error("key 1 should still be cached")
	}
	get(4) // evicts 2
	if c.Len() != 3 || c.Evictions() != 2 {
		t.Errorf("Len = %d, Evictions = %d; want 3 and 2", c.Len(), c.Evictions())
	}
	if evicted[0] != 1 || evicted[2] != 1 || len(evicted) != 2 {
		t.Errorf("evicted = %v, want keys 0 and 2 once each", evicted)
	}
	if !get(1) || !get(3) || !get(4) {
		t.Error("a surviving key missed")
	}
	if get(2) {
		t.Error("evicted key 2 hit")
	}
}

// TestInFlightEntryIsNeverEvicted: while one key is still building, other
// keys overflow the bound; the building entry survives and its waiter
// receives the build it waited for.
func TestInFlightEntryIsNeverEvicted(t *testing.T) {
	var c Cache[int, int]
	c.SetMax(1)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		v, _, _ := c.Get(0, func() (int, error) {
			close(started)
			<-release
			return 100, nil
		})
		done <- v
	}()
	<-started
	for k := 1; k <= 3; k++ {
		c.Get(k, func() (int, error) { return k, nil })
	}
	waiter := make(chan int)
	go func() {
		v, hit, _ := c.Get(0, func() (int, error) { return -1, nil })
		if !hit {
			t.Error("request for an in-flight key rebuilt it")
		}
		waiter <- v
	}()
	close(release)
	if v := <-done; v != 100 {
		t.Errorf("builder got %d, want 100", v)
	}
	if v := <-waiter; v != 100 {
		t.Errorf("waiter got %d, want 100", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1 (the bound)", c.Len())
	}
}

// TestUnboundedKeepsNoLRUState: a cache without a bound links nothing into
// an LRU list, however often its entries are hit.
func TestUnboundedKeepsNoLRUState(t *testing.T) {
	var c Cache[int, int]
	for i := 0; i < 100; i++ {
		c.Get(i%10, func() (int, error) { return i, nil })
	}
	if c.lru != nil {
		t.Error("unbounded cache allocated an LRU list")
	}
	for k, e := range c.m {
		if e.elem != nil {
			t.Errorf("entry %d holds an LRU slot", k)
		}
	}
	if c.Len() != 10 || c.Evictions() != 0 {
		t.Errorf("Len = %d, Evictions = %d; want 10 and 0", c.Len(), c.Evictions())
	}
}

// TestBoundedConcurrent hammers a tight bound from many goroutines; under
// -race this exercises eviction racing builds and hits.
func TestBoundedConcurrent(t *testing.T) {
	var c Cache[int, int]
	c.SetMax(2)
	var evicted atomic.Int64
	c.OnEvict = func(int, int) { evicted.Add(1) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := i % 6
				if v, _, _ := c.Get(k, func() (int, error) { return k * k, nil }); v != k*k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() > 2 {
		t.Errorf("Len = %d, past the bound", c.Len())
	}
	if evicted.Load() != c.Evictions() || evicted.Load() == 0 {
		t.Errorf("hook ran %d times for %d evictions", evicted.Load(), c.Evictions())
	}
}

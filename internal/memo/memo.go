// Package memo is the build-once cache behind every memoization layer of
// the repo: session results, session inputs (traces and learners), DOM
// page trees and figures. A Cache builds each key at most once per residency
// no matter how many goroutines ask for it concurrently, caches errors like
// values, and can bound itself with least-recently-used eviction.
package memo

import (
	"container/list"
	"sync"
)

// Cache maps keys to values built on first request. The zero value is an
// empty, unbounded cache ready for use; all methods are safe for concurrent
// use.
type Cache[K comparable, V any] struct {
	// OnEvict, when set, runs once for every entry the LRU bound drops,
	// after the entry has left the cache, on the goroutine whose request
	// caused the eviction. Set it before the cache is shared.
	OnEvict func(K, V)

	mu        sync.Mutex
	m         map[K]*entry[V]
	max       int        // 0 = unbounded
	lru       *list.List // completed keys, most recently used first; nil until bounded
	evictions int64
}

// entry is one key's slot. Its creator builds the value; every other
// requester waits on built and shares the result.
type entry[V any] struct {
	built sync.WaitGroup
	val   V
	err   error
	elem  *list.Element // LRU slot, linked once built; nil while unbounded
}

// SetMax bounds the cache to at most n entries, evicting the least recently
// used completed entries beyond it; n <= 0 leaves it unbounded (the
// default). The bound applies from the next entry completed after the call.
func (c *Cache[K, V]) SetMax(n int) {
	c.mu.Lock()
	c.max = n
	c.mu.Unlock()
}

// Get returns the value for k, calling build on the first request. A
// concurrent request for a key being built waits for that build and shares
// its value and error. hit is false only for the request that ran build.
// In-flight entries are never evicted, so a waiter always receives the
// build it waited for.
func (c *Cache[K, V]) Get(k K, build func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	e, hit := c.m[k]
	if !hit {
		if c.m == nil {
			c.m = make(map[K]*entry[V])
		}
		e = new(entry[V])
		e.built.Add(1)
		c.m[k] = e
	}
	bounded := c.max > 0
	c.mu.Unlock()
	if hit {
		e.built.Wait()
	} else {
		func() {
			defer e.built.Done()
			e.val, e.err = build()
		}()
	}
	if bounded {
		c.touch(k, e)
	}
	return e.val, hit, e.err
}

// touch marks a completed entry most recently used and applies the bound.
// An entry evicted between its build and this touch (another key's touch
// ran eviction first) is not re-linked.
func (c *Cache[K, V]) touch(k K, e *entry[V]) {
	c.mu.Lock()
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		return
	}
	if c.m[k] != e || c.max <= 0 {
		c.mu.Unlock()
		return
	}
	if c.lru == nil {
		c.lru = list.New()
	}
	e.elem = c.lru.PushFront(k)
	var evicted []K // and their values, for OnEvict
	var values []V
	for len(c.m) > c.max {
		back := c.lru.Back()
		if back == nil {
			break // only in-flight entries remain
		}
		old := back.Value.(K)
		oe := c.m[old]
		c.lru.Remove(back)
		oe.elem = nil
		delete(c.m, old)
		c.evictions++
		if c.OnEvict != nil {
			evicted, values = append(evicted, old), append(values, oe.val)
		}
	}
	c.mu.Unlock()
	for i, old := range evicted {
		c.OnEvict(old, values[i])
	}
}

// Len returns the number of entries held, in-flight builds included.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Evictions returns how many entries the LRU bound has dropped.
func (c *Cache[K, V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

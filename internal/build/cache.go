package build

import (
	"container/list"
	"sync"
)

// DefaultCacheCapacity bounds the process-wide artifact cache. Entries
// are whole stage artifacts (a synthesized workload log, a job slice, a
// failure trace or index); at the default sweep scale each is tens of
// kilobytes, so the default bound keeps the cache well under a few
// dozen megabytes while comfortably covering every distinct
// (workload, seed, load, failure) combination of a full figure sweep.
const DefaultCacheCapacity = 256

// Cache is a bounded, self-locking LRU of immutable build artifacts
// keyed by stage-qualified content hashes. Concurrent misses on the
// same key are coalesced: one caller computes, the rest block and share
// the result, so a parallel sweep warming up does not synthesize the
// same workload once per worker.
//
// Values stored in the cache are shared across goroutines and runs;
// they must never be mutated after insertion. Stages whose artifacts
// are mutated downstream (job slices) store a master copy and hand out
// clones.
type Cache struct {
	mu       sync.Mutex
	cap      int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flight
}

type cacheEntry struct {
	key string
	val any
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// NewCache returns an empty cache bounded to capacity entries;
// capacity < 1 falls back to DefaultCacheCapacity.
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		cap:      capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Shared is the process-wide artifact cache: experiments.RunContext
// and the sweep engine build through it, so runs and sweep points that
// agree on a sub-config reuse each other's artifacts.
var Shared = NewCache(DefaultCacheCapacity)

// GetOrCompute returns the artifact for key, computing and inserting it
// on a miss. hit reports whether the value came from the cache (a
// coalesced wait on another caller's in-flight computation counts as a
// hit: the work was shared, not repeated). Compute errors are returned
// to every coalesced caller and nothing is inserted.
func (c *Cache) GetOrCompute(key string, compute func() (any, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.val, f.err = compute()

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.addLocked(key, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// addLocked inserts (or refreshes) key and evicts down to capacity.
func (c *Cache) addLocked(key string, v any) {
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached artifacts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Purge drops every cached artifact (in-flight computations are
// unaffected and will insert their results afterwards).
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
}

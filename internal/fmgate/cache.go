package fmgate

import (
	"sync"

	"smartfeat/internal/obs"
)

// lruCache is a fixed-capacity LRU for completions laid out as a slab: each
// entry holds one slot of a slice and links to its recency neighbours by slot
// index, and a map from the key's first 8 bytes finds its slot (a uint64 key
// takes the map's fast path). The slot keeps the whole key: a get whose slot
// holds another key with the same prefix is a miss, and a put of such a key
// takes the slot over, so a completion is never served for the wrong key.
// An eviction reuses the tail's slot, so a full cache allocates no entry.
// Not safe for concurrent use on its own; it is the core of one
// shardedCache shard, which guards it with a per-shard mutex.
type lruCache struct {
	cap        int
	bytes      int64 // sum of len(key)+len(text) over resident entries
	head, tail int32 // most and least recently used slot; -1 when empty
	slab       []lruEntry
	items      map[uint64]int32 // slot by the key's first 8 bytes
}

type lruEntry struct {
	key        digest
	text       string
	prev, next int32 // neighbour slots toward head and tail; -1 at the ends
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, head: -1, tail: -1, items: make(map[uint64]int32)}
}

func (c *lruCache) get(key digest) (string, bool) {
	i, ok := c.items[key.prefix()]
	if !ok || c.slab[i].key != key {
		return "", false
	}
	c.toFront(i)
	return c.slab[i].text, true
}

// put inserts or refreshes key and reports whether an entry was evicted plus
// the resident-bytes delta (callers feed both into the fmcache instruments).
func (c *lruCache) put(key digest, text string) (evicted bool, bytesDelta int64) {
	p := key.prefix()
	if i, ok := c.items[p]; ok {
		// A refresh, or another key with the same prefix taking the slot
		// over; keys are all 16 bytes, so only the text changes size.
		e := &c.slab[i]
		bytesDelta = int64(len(text)) - int64(len(e.text))
		e.key, e.text = key, text
		c.toFront(i)
		c.bytes += bytesDelta
		return false, bytesDelta
	}
	var i int32
	if len(c.slab) < c.cap {
		i = int32(len(c.slab))
		c.slab = append(c.slab, lruEntry{})
	} else {
		i = c.tail
		old := &c.slab[i]
		delete(c.items, old.key.prefix())
		c.unlink(i)
		bytesDelta = -int64(len(old.key) + len(old.text))
		evicted = true
	}
	c.slab[i].key, c.slab[i].text = key, text
	c.pushFront(i)
	c.items[p] = i
	bytesDelta += int64(len(key) + len(text))
	c.bytes += bytesDelta
	return evicted, bytesDelta
}

// unlink takes slot i out of the recency list.
func (c *lruCache) unlink(i int32) {
	e := &c.slab[i]
	if e.prev >= 0 {
		c.slab[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.slab[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFront links slot i in as the most recently used.
func (c *lruCache) pushFront(i int32) {
	e := &c.slab[i]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.slab[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *lruCache) toFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// cacheShardCount is the fan-out of the sharded in-process tier. Completion
// keys are uniformly-distributed content hashes, so a small power of two
// spreads the row-level fan-out and concurrent grid cells across independent
// mutexes instead of serializing every hit on one lock.
const cacheShardCount = 16

// shardedCache is the tier-1 in-process completion cache: an N-way sharded
// LRU. Each shard is an independently-locked lruCache; total capacity is
// split evenly (so eviction is approximate-global LRU, exact per shard).
// Safe for concurrent use.
type shardedCache struct {
	shards    []cacheShard
	evictions *obs.Counter // fmcache_evictions_total contributor (owned by the Gateway)
	bytes     *obs.Gauge   // fmcache_bytes{tier="mem"} contributor (owned by the Gateway)
}

type cacheShard struct {
	mu  sync.Mutex
	lru *lruCache
	_   [40]byte // pad to a cache line so shard locks don't false-share
}

// newShardedCache builds a sharded LRU of (at least) the given total
// capacity. Capacities smaller than the shard count use one shard per entry
// so tiny caches still evict at the requested size.
func newShardedCache(capacity int, evictions *obs.Counter, bytes *obs.Gauge) *shardedCache {
	if capacity <= 0 {
		return nil
	}
	n := cacheShardCount
	if capacity < n {
		n = capacity
	}
	per := (capacity + n - 1) / n
	s := &shardedCache{shards: make([]cacheShard, n), evictions: evictions, bytes: bytes}
	for i := range s.shards {
		s.shards[i].lru = newLRUCache(per)
	}
	return s
}

// shardFor picks a shard by FNV-1a over the first four digits of the key's
// hex form. A key's shard decides what a full cache evicts, and so which
// repeats reach upstream; hashing the hex digits keeps that as it was when
// the cache was keyed by hex strings. The digest is already uniform, so a
// short prefix spreads shards as well as the full key.
func (s *shardedCache) shardFor(key digest) *cacheShard {
	const (
		offset32  = 2166136261
		prime32   = 16777619
		hexDigits = "0123456789abcdef"
	)
	h := uint32(offset32)
	for _, b := range key[:2] {
		h = (h ^ uint32(hexDigits[b>>4])) * prime32
		h = (h ^ uint32(hexDigits[b&15])) * prime32
	}
	return &s.shards[h%uint32(len(s.shards))]
}

func (s *shardedCache) get(key digest) (string, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	text, ok := sh.lru.get(key)
	sh.mu.Unlock()
	return text, ok
}

func (s *shardedCache) put(key digest, text string) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	evicted, delta := sh.lru.put(key, text)
	sh.mu.Unlock()
	if evicted && s.evictions != nil {
		s.evictions.Inc()
	}
	if delta != 0 && s.bytes != nil {
		s.bytes.Add(delta)
	}
}

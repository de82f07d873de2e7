package fmgate

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"smartfeat/internal/core"
	"smartfeat/internal/datasets"
	"smartfeat/internal/fm"
)

// benchKeys builds a working set of content-hash-shaped keys pre-inserted
// into the cache under test.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = contentKey("", "bench", fmt.Sprintf("prompt-%d", i))
	}
	return keys
}

// mutexCache is the pre-sharding design — one lruCache behind one mutex —
// kept here as the benchmark baseline the sharded tier is measured against.
type mutexCache struct {
	mu  sync.Mutex
	lru *lruCache
}

func (c *mutexCache) get(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.get(key)
}

func (c *mutexCache) put(key, text string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.put(key, text)
}

const benchCacheSize = 4096

// BenchmarkCacheHit measures the single-threaded hit path of the sharded
// in-process tier (the regression guard: sharding must not slow down the
// uncontended case).
func BenchmarkCacheHit(b *testing.B) {
	c := newShardedCache(benchCacheSize, nil, nil)
	keys := benchKeys(benchCacheSize / 2)
	for _, k := range keys {
		c.put(k, "response for "+k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.get(keys[i%len(keys)]); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkCacheHitMutex is the single-threaded baseline on the old
// single-mutex LRU.
func BenchmarkCacheHitMutex(b *testing.B) {
	c := &mutexCache{lru: newLRUCache(benchCacheSize)}
	keys := benchKeys(benchCacheSize / 2)
	for _, k := range keys {
		c.put(k, "response for "+k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.get(keys[i%len(keys)]); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkCacheHitParallel measures the contended hit path — the shape of a
// grid runner fanning row-level completions across GOMAXPROCS goroutines —
// on the sharded tier.
func BenchmarkCacheHitParallel(b *testing.B) {
	c := newShardedCache(benchCacheSize, nil, nil)
	keys := benchKeys(benchCacheSize / 2)
	for _, k := range keys {
		c.put(k, "response for "+k)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := c.get(keys[i%len(keys)]); !ok {
				b.Fatal("unexpected miss")
			}
			i++
		}
	})
}

// BenchmarkCacheHitParallelMutex is the contended baseline on the old
// single-mutex LRU: every hit serializes on one lock.
func BenchmarkCacheHitParallelMutex(b *testing.B) {
	c := &mutexCache{lru: newLRUCache(benchCacheSize)}
	keys := benchKeys(benchCacheSize / 2)
	for _, k := range keys {
		c.put(k, "response for "+k)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := c.get(keys[i%len(keys)]); !ok {
				b.Fatal("unexpected miss")
			}
			i++
		}
	})
}

// BenchmarkCompleteRowsWarm completes 4,096 Bank rows through a gateway
// whose LRU already holds every row: the warm pass of the row-level path
// (prompt building, content key, cache hit and the row workers), with no
// upstream call. ns/row is the cost of one cached row.
func BenchmarkCompleteRowsWarm(b *testing.B) {
	d, err := datasets.Load("Bank", 1)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]int, 4096)
	for i := range rows {
		rows[i] = i
	}
	f := d.Frame.Take(rows)
	g := New(fm.NewGPT35Sim(1, 0), Options{CacheSize: 1 << 13})
	ctx := context.Background()
	if _, err := core.CompleteRows(ctx, g, f, "Estimated_Subscription_Propensity", f.Len()); err != nil {
		b.Fatal(err)
	}
	upstream := g.Metrics().UpstreamCalls
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CompleteRows(ctx, g, f, "Estimated_Subscription_Propensity", f.Len()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := g.Metrics().UpstreamCalls; got != upstream {
		b.Fatalf("warm passes made %d upstream calls", got-upstream)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*f.Len()), "ns/row")
}

package fmgate

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"smartfeat/internal/core"
	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
	"smartfeat/internal/fm"
)

// benchKeys builds a working set of content addresses pre-inserted into the
// cache under test.
func benchKeys(n int) []digest {
	keys := make([]digest, n)
	for i := range keys {
		keys[i] = contentDigest("", "bench", fmt.Sprintf("prompt-%d", i))
	}
	return keys
}

const benchCacheSize = 4096

// BenchmarkCacheHit measures the single-threaded hit path of the sharded
// in-process tier (the regression guard: sharding must not slow down the
// uncontended case).
func BenchmarkCacheHit(b *testing.B) {
	c := newShardedCache(benchCacheSize, nil, nil)
	keys := benchKeys(benchCacheSize / 2)
	for _, k := range keys {
		c.put(k, "response for "+k.String())
	}
	b.ReportAllocs()
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
		c.put(k, "response for "+k.String())
	}
	b.ReportAllocs()
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

// echoModel is the trivial model behind BenchmarkGatewayComplete: it answers
// at once, so the benchmark measures the gateway's own per-request cost.
type echoModel struct{}

func (echoModel) Complete(_ context.Context, prompt string) (string, error) { return "42", nil }
func (echoModel) Name() string                                              { return "echo" }
func (echoModel) Usage() fm.Usage                                           { return fm.Usage{} }
func (echoModel) ResetUsage()                                               {}

// BenchmarkGatewayComplete measures one Gateway.Complete of a row-level
// prompt over echoModel. hit serves a cached prompt. miss cycles prompts
// through a one-entry cache, so every request misses, takes the singleflight
// and upstream path and evicts its predecessor.
func BenchmarkGatewayComplete(b *testing.B) {
	prompts := make([]string, benchCacheSize/2)
	for i := range prompts {
		prompts[i] = fmt.Sprintf("Task: %s\nRow: Age: %d, Job: admin., Balance: %d\n", fm.TaskCompleteRow, i, 7*i)
	}
	ctx := context.Background()
	b.Run("hit", func(b *testing.B) {
		g := New(echoModel{}, Options{CacheSize: benchCacheSize})
		for _, p := range prompts {
			if _, err := g.Complete(ctx, p); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.Complete(ctx, prompts[i%len(prompts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		g := New(echoModel{}, Options{CacheSize: 1})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.Complete(ctx, prompts[i%len(prompts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchRows is the first 4,096 rows of Bank, the row-level benches' frame.
func benchRows(b *testing.B) *dataframe.Frame {
	d, err := datasets.Load("Bank", 1)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]int, 4096)
	for i := range rows {
		rows[i] = i
	}
	return d.Frame.Take(rows)
}

// BenchmarkCompleteRowsWarm completes 4,096 Bank rows through a gateway
// whose LRU already holds every row: the warm pass of the row-level path
// (prompt building, content key, cache hit and the row workers), with no
// upstream call. ns/row is the cost of one cached row.
func BenchmarkCompleteRowsWarm(b *testing.B) {
	f := benchRows(b)
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

// BenchmarkCompleteRowsCold completes 4,096 Bank rows through a fresh
// caching gateway per iteration, as the cold pass of perfbench's rowlevel
// workload does: every row misses, takes singleflight and one simulator
// call, and is cached. The gateway admits GOMAXPROCS upstream calls, so
// CompleteRows runs that many workers. ns/row is the cost of one cold row.
func BenchmarkCompleteRowsCold(b *testing.B) {
	f := benchRows(b)
	model := fm.NewGPT35Sim(1, 0)
	ctx := context.Background()
	opts := Options{CacheSize: 1 << 13, Concurrency: runtime.GOMAXPROCS(0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(model, opts)
		if _, err := core.CompleteRows(ctx, g, f, "Estimated_Subscription_Propensity", f.Len()); err != nil {
			b.Fatal(err)
		}
		if m := g.Metrics(); m.UpstreamCalls+m.InflightShares != int64(f.Len()) {
			b.Fatalf("cold pass: %+v, want every row to miss the cache", m)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*f.Len()), "ns/row")
}

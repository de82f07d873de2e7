package fmgate

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"smartfeat/internal/fm"
)

// BenchmarkPoolComplete measures the pool's per-call transport overhead —
// selection, breaker bookkeeping, resolve-once plumbing — over an instant
// model, concurrent as in the row-level fan-out. This is the price every FM
// call pays for resilience when nothing goes wrong. The prompts carry a
// Task: line, so each call also takes the singleflight path that
// production's cacheable row prompts take.
func BenchmarkPoolComplete(b *testing.B) {
	model := &countingModel{}
	p, err := NewPool(model, []Backend{
		{Name: "b1"}, {Name: "b2"}, {Name: "b3"},
	}, PoolOptions{HedgeAfter: time.Second}) // armed but never fires
	if err != nil {
		b.Fatal(err)
	}
	g := New(p, Options{Concurrency: 16})
	ctx := context.Background()
	var seq atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			prompt := fmt.Sprintf("Task: %s\nprompt-%d", fm.TaskGenerateFunction, seq.Add(1))
			if _, err := g.Complete(ctx, prompt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPoolCompleteNoHedge is BenchmarkPoolComplete with hedging off,
// the pool's default: no second attempt can fire, so the primary runs on
// the caller's goroutine and a call starts no goroutine of its own.
func BenchmarkPoolCompleteNoHedge(b *testing.B) {
	model := &countingModel{}
	p, err := NewPool(model, []Backend{
		{Name: "b1"}, {Name: "b2"}, {Name: "b3"},
	}, PoolOptions{})
	if err != nil {
		b.Fatal(err)
	}
	g := New(p, Options{Concurrency: 16})
	ctx := context.Background()
	var seq atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			prompt := fmt.Sprintf("Task: %s\nprompt-%d", fm.TaskGenerateFunction, seq.Add(1))
			if _, err := g.Complete(ctx, prompt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

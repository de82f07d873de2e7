// Package par runs the indices 0 … n-1 of a task on a bounded worker pool.
// It is the one pool behind every parallel loop of the program: a cell's
// model fits and CAAFE sessions, the grid runner's cells, a forest's trees,
// row-level completions and loadsim's closed-loop clients.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves the number of workers Run starts for n tasks: workers ≤ 0
// means GOMAXPROCS, and the count is capped at n.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 0)
}

// Run calls fn for every index in [0, n) on Workers(workers, n) workers and
// returns once every worker has exited. Indices are handed out in
// increasing order. A single worker loops on the caller's goroutine, a plain
// loop; more run on goroutines of their own. w in [0, Workers(workers, n))
// names the worker a task runs on, for per-worker scratch.
//
// A task fails by returning an error or by panicking. After a failure at
// index k, Run hands out no further index, cancels the contexts of the
// tasks running above k and lets those below k finish, so a lower failure
// still wins: the outcome is the one a sequential loop would have stopped
// at. Run then returns the lowest failing index's error, or, when that
// index panicked, re-raises its panic on the caller's goroutine as a
// *TaskPanic. Run does not watch ctx itself: a task sees the caller's
// cancellation through its own context.
func Run(ctx context.Context, workers, n int, fn func(ctx context.Context, w, i int) error) error {
	p := &pool{fn: fn, lanes: make([]lane, Workers(workers, n))}
	if len(p.lanes) == 0 {
		return nil
	}
	p.stop.Store(int64(n))
	for w := range p.lanes {
		p.lanes[w].ctx, p.lanes[w].cancel = context.WithCancel(ctx)
	}
	if len(p.lanes) == 1 {
		p.work(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(len(p.lanes))
		for w := range p.lanes {
			go func() {
				defer wg.Done()
				p.work(w)
			}()
		}
		wg.Wait()
	}
	for w := range p.lanes {
		p.lanes[w].cancel()
	}
	if p.panic != nil {
		panic(p.panic)
	}
	return p.err
}

// TaskPanic is what Run re-raises when a task panicked: the task's panic
// value and the stack of the goroutine it panicked on. A task that runs a
// pool of its own passes that pool's TaskPanic through unwrapped, so the
// stack stays the innermost one.
type TaskPanic struct {
	Value any
	Stack []byte
}

// Error formats the task's panic value alone; the stack stays in Stack.
func (p *TaskPanic) Error() string { return fmt.Sprint(p.Value) }

// pool is one Run's shared state.
type pool struct {
	fn    func(ctx context.Context, w, i int) error
	lanes []lane
	next  atomic.Int64 // next index to hand out
	stop  atomic.Int64 // lowest failed index; n while none failed

	mu    sync.Mutex
	err   error      // the failure of index stop, when it returned one
	panic *TaskPanic // the failure of index stop, when it panicked
}

// lane is one worker: the index it holds and the context its tasks run
// under.
type lane struct {
	cur    atomic.Int64
	ctx    context.Context
	cancel context.CancelFunc
}

func (p *pool) work(w int) {
	l := &p.lanes[w]
	for {
		i := p.next.Add(1) - 1
		// Publish the index before checking stop: a failure recorded
		// meanwhile then either is seen here or cancels this lane.
		l.cur.Store(i)
		if i >= p.stop.Load() {
			return // past the last index, or past a failed one
		}
		p.run(l.ctx, w, i)
	}
}

// run calls the task at index i and records its failure.
func (p *pool) run(ctx context.Context, w int, i int64) {
	defer func() {
		if v := recover(); v != nil {
			tp, ok := v.(*TaskPanic)
			if !ok {
				tp = &TaskPanic{Value: v, Stack: debug.Stack()}
			}
			p.fail(i, nil, tp)
		}
	}()
	if err := p.fn(ctx, w, int(i)); err != nil {
		p.fail(i, err, nil)
	}
}

// fail records index i's failure unless a lower index failed first, and
// cancels the lanes holding higher indices.
func (p *pool) fail(i int64, err error, tp *TaskPanic) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i >= p.stop.Load() {
		return // a higher index, or one cancelled because of a lower failure
	}
	p.stop.Store(i)
	p.err, p.panic = err, tp
	for w := range p.lanes {
		if p.lanes[w].cur.Load() > i {
			p.lanes[w].cancel()
		}
	}
}

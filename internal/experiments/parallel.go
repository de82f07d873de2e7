package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// workers resolves the configured evaluation parallelism (0 → GOMAXPROCS).
func (cfg Config) workers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachIndex runs fn(0) … fn(n-1) on a bounded worker pool. Every task
// writes only to its own result slot and derives its randomness from fixed
// per-task seeds, so the outcome is bit-identical to the sequential order no
// matter how the pool schedules. With workers ≤ 1 it degenerates to a plain
// loop (no goroutines) — the sequential reference the equivalence tests pin
// against. Exported for the grid runner, which schedules cells with the
// same guarantees.
//
// A task's panic does not end the process from a worker goroutine, where no
// caller could recover it: the pool stops handing out indices, lets the
// running tasks finish, and re-raises on the caller's goroutine a
// *TaskPanic holding the panic of the lowest panicking index and the stack
// of the goroutine that raised it.
func ForEachIndex(workers, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	var (
		mu      sync.Mutex
		first   *TaskPanic
		firstAt int
		stop    atomic.Bool
	)
	run := func(i int) {
		defer func() {
			if p := recover(); p != nil {
				tp, ok := p.(*TaskPanic) // a nested pool's: keep its stack
				if !ok {
					tp = &TaskPanic{Value: p, Stack: debug.Stack()}
				}
				mu.Lock()
				if first == nil || i < firstAt {
					first, firstAt = tp, i
				}
				mu.Unlock()
				stop.Store(true)
			}
		}()
		fn(i)
	}
	if workers <= 1 {
		for i := 0; i < n && !stop.Load(); i++ {
			run(i)
		}
	} else {
		var wg sync.WaitGroup
		var next atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	if first != nil {
		panic(first)
	}
}

// TaskPanic is what ForEachIndex re-raises when a task panicked: the task's
// panic value and the stack of the goroutine it panicked on.
type TaskPanic struct {
	Value any
	Stack []byte
}

// Error formats the task's panic value alone; the stack stays in Stack.
func (p *TaskPanic) Error() string { return fmt.Sprint(p.Value) }

// dnnFirst returns the indices of models with the DNN's first: its fit is
// the longest, so on a bounded pool it starts while the cheaper fits share
// the other workers instead of finishing alone at the end. The rest keep
// their order. Every model writes its own slot, so the order moves
// wall-clock only.
func dnnFirst(models []string) []int {
	order := make([]int, 0, len(models))
	for _, dnn := range []bool{true, false} {
		for i, m := range models {
			if (m == "DNN") == dnn {
				order = append(order, i)
			}
		}
	}
	return order
}

// ExpensiveFirst stably reorders idx so the costliest cells start first:
// CAAFE cells (their validation retrains the downstream model per
// candidate), then SMARTFEAT cells, then everything else, each group in its
// original order. method maps an index to its cell's method. On a bounded
// pool this starts the longest serial chains while the cheap cells fill the
// other workers, instead of leaving one worker to finish them alone at the
// end. Cells are seeded per cell, so the order moves wall-clock only.
func ExpensiveFirst(idx []int, method func(int) string) {
	rank := func(i int) int {
		switch method(i) {
		case MethodCAAFE:
			return 0
		case MethodSmartfeat:
			return 1
		}
		return 2
	}
	slices.SortStableFunc(idx, func(a, b int) int { return rank(a) - rank(b) })
}

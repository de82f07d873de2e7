package experiments

import (
	"runtime"
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
func ForEachIndex(workers, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := int64(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
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

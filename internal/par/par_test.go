package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunCoversAllTasks(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var hits [57]atomic.Int32
		nw := Workers(workers, len(hits))
		err := Run(context.Background(), workers, len(hits), func(_ context.Context, w, i int) error {
			if w < 0 || w >= nw {
				t.Errorf("workers=%d: task %d ran on worker %d of %d", workers, i, w, nw)
			}
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, h)
			}
		}
	}
	if err := Run(context.Background(), 4, 0, func(context.Context, int, int) error {
		t.Fatal("no tasks expected")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := Workers(0, 1000), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers(0, 1000) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8, 3) = %d, want the task count", got)
	}
}

// catchTaskPanic runs Run and returns what it re-raised, nil when nothing
// panicked.
func catchTaskPanic(workers, n int, fn func(int)) (tp *TaskPanic, raised any) {
	defer func() {
		raised = recover()
		tp, _ = raised.(*TaskPanic)
	}()
	Run(context.Background(), workers, n, func(_ context.Context, _, i int) error {
		fn(i)
		return nil
	})
	return nil, nil
}

// TestRunContainsPanic pins panic containment: one panicking index comes
// back on the caller's goroutine as a *TaskPanic with its value and the
// panicking worker's stack, every index below it has run, and the
// sequential path hands out no index after it.
func TestRunContainsPanic(t *testing.T) {
	const n, bad = 40, 7
	for _, workers := range []int{1, 3} {
		var ran [n]atomic.Bool
		tp, raised := catchTaskPanic(workers, n, func(i int) {
			ran[i].Store(true)
			if i == bad {
				panic("task 7 failed")
			}
		})
		if tp == nil {
			t.Fatalf("workers=%d: re-raised %v (%T), want a *TaskPanic", workers, raised, raised)
		}
		if tp.Value != "task 7 failed" || tp.Error() != "task 7 failed" {
			t.Fatalf("workers=%d: panic value %v", workers, tp.Value)
		}
		if !strings.Contains(string(tp.Stack), "TestRunContainsPanic.func") {
			t.Fatalf("workers=%d: stack lacks the panicking task:\n%s", workers, tp.Stack)
		}
		for i := 0; i <= bad; i++ {
			if !ran[i].Load() {
				t.Fatalf("workers=%d: task %d never ran", workers, i)
			}
		}
		if workers == 1 {
			for i := bad + 1; i < n; i++ {
				if ran[i].Load() {
					t.Fatalf("sequential pool ran task %d after the panic", i)
				}
			}
		}
	}
	// Every task panics: the lowest index's panic is the one re-raised, and
	// one pool's TaskPanic passes through an enclosing pool unwrapped.
	tp, _ := catchTaskPanic(2, 2, func(int) {
		Run(context.Background(), 3, 9, func(_ context.Context, _, i int) error { panic(i) })
	})
	if tp == nil || tp.Value != 0 {
		t.Fatalf("nested pools re-raised %+v, want the inner task 0's panic", tp)
	}
}

// TestRunCancelsHigherTasks fails index 0 while index 1 blocks on its
// context: the failure cancels it, and Run returns index 0's error.
func TestRunCancelsHigherTasks(t *testing.T) {
	started := make(chan struct{})
	refused := errors.New("task 0 refused")
	err := Run(context.Background(), 2, 2, func(ctx context.Context, _, i int) error {
		if i == 0 {
			<-started
			return refused
		}
		close(started)
		<-ctx.Done()
		return ctx.Err()
	})
	if err != refused {
		t.Fatalf("Run = %v, want task 0's error", err)
	}
}

// taskErr is the error FuzzRun's failing tasks return: their index.
type taskErr int

func (e taskErr) Error() string { return fmt.Sprint("task ", int(e), " failed") }

// FuzzRun drives Run with 1–8 workers over 0–200 tasks, failing the tasks
// whose bit is set in fails by returning an error and those set in panics
// by panicking (a panic wins when both are set). The lowest failing index
// must surface, every index below it must run exactly once, no index may
// run twice, and one worker must run no index above it.
func FuzzRun(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{}, []byte{})
	f.Add(uint8(4), uint8(200), []byte{}, []byte{})
	f.Add(uint8(1), uint8(50), []byte{0, 0, 1}, []byte{})
	f.Add(uint8(3), uint8(120), []byte{0, 0, 0, 0, 0x80}, []byte{0, 0, 0x10})
	f.Add(uint8(8), uint8(9), []byte{0xff}, []byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, workers, n uint8, fails, panics []byte) {
		w, size := 1+int(workers)%8, int(n)%201
		bit := func(bits []byte, i int) bool { return i/8 < len(bits) && bits[i/8]&(1<<(i%8)) != 0 }
		lowest := size
		for i := size - 1; i >= 0; i-- {
			if bit(fails, i) || bit(panics, i) {
				lowest = i
			}
		}
		runs := make([]atomic.Int32, size)
		var err error
		var raised any
		func() {
			defer func() { raised = recover() }()
			err = Run(context.Background(), w, size, func(_ context.Context, _, i int) error {
				runs[i].Add(1)
				if bit(panics, i) {
					panic(i)
				}
				if bit(fails, i) {
					return taskErr(i)
				}
				return nil
			})
		}()
		switch {
		case lowest == size:
			if err != nil || raised != nil {
				t.Fatalf("no task failed, Run gave (%v, %v)", err, raised)
			}
		case bit(panics, lowest):
			if tp, ok := raised.(*TaskPanic); !ok || tp.Value != lowest || err != nil {
				t.Fatalf("task %d panicked first, Run gave (%v, %#v)", lowest, err, raised)
			}
		default:
			var te taskErr
			if raised != nil || !errors.As(err, &te) || int(te) != lowest {
				t.Fatalf("task %d failed first, Run gave (%v, %v)", lowest, err, raised)
			}
		}
		for i := range runs {
			switch r := runs[i].Load(); {
			case r > 1:
				t.Fatalf("task %d ran %d times", i, r)
			case i <= lowest && r != 1:
				t.Fatalf("task %d at or below the lowest failure %d ran %d times", i, lowest, r)
			case i > lowest && w == 1 && r != 0:
				t.Fatalf("one worker ran task %d past the failure at %d", i, lowest)
			}
		}
	})
}

package fmgate

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// faultTrace renders one drawn fault as a comparable token.
func faultTrace(f Fault) string {
	switch {
	case f.Hang:
		return "hang"
	case f.Err != nil:
		if _, ok := RetryAfterHint(f.Err); ok {
			return "ratelimit"
		}
		return "error"
	case f.Malformed:
		return fmt.Sprintf("malformed/j%d", f.Jitter)
	default:
		return fmt.Sprintf("ok/j%d", f.Jitter)
	}
}

// TestFaultDeterminismUnderConcurrency pins the per-call seeding fix: the
// i-th draw for a given prompt must be identical whether calls run
// sequentially in one goroutine or interleaved across many (the old shared
// rand.Rand made fault sequences depend on goroutine scheduling). Run under
// -race -cpu 4 by make check.
func TestFaultDeterminismUnderConcurrency(t *testing.T) {
	build := func() *FaultInjector {
		return &FaultInjector{
			ErrorRate:     0.3,
			RateLimitRate: 0.15,
			MalformedRate: 0.2,
			MaxJitter:     3, // nanoseconds: draw variety without sleeping
			Seed:          7,
		}
	}
	const prompts = 12
	const callsPer = 9

	// Sequential baseline: per-prompt fault sequences in order.
	baseline := make(map[string][]string)
	seqInj := build()
	for c := 0; c < callsPer; c++ {
		for p := 0; p < prompts; p++ {
			key := fmt.Sprintf("prompt-%d", p)
			baseline[key] = append(baseline[key], faultTrace(seqInj.Draw(key)))
		}
	}

	// Concurrent run: same multiset of calls in a shuffled order across
	// goroutines; per-prompt draw order is serialized per goroutine by
	// giving each goroutine one prompt's whole call sequence.
	inj := build()
	got := make(map[string][]string)
	var mu sync.Mutex
	var wg sync.WaitGroup
	order := rand.New(rand.NewSource(1)).Perm(prompts)
	for _, p := range order {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			key := fmt.Sprintf("prompt-%d", p)
			var traces []string
			for c := 0; c < callsPer; c++ {
				traces = append(traces, faultTrace(inj.Draw(key)))
			}
			mu.Lock()
			got[key] = traces
			mu.Unlock()
		}(p)
	}
	wg.Wait()

	for key, want := range baseline {
		if gotSeq := strings.Join(got[key], ","); gotSeq != strings.Join(want, ",") {
			t.Errorf("%s: fault sequence changed under concurrency:\n  sequential: %v\n  concurrent: %s", key, want, gotSeq)
		}
	}
	if inj.Counts() != seqInj.Counts() {
		t.Errorf("fault counts diverged: sequential %+v, concurrent %+v", seqInj.Counts(), inj.Counts())
	}
	if inj.Counts().Total() == 0 {
		t.Fatal("test drew no faults at all; rates/seed need adjusting")
	}
}

// TestFaultKinds exercises each new fault kind's contract.
func TestFaultKinds(t *testing.T) {
	t.Run("rate limit carries retry-after hint", func(t *testing.T) {
		fi := &FaultInjector{RateLimitRate: 1, RetryAfter: 40 * time.Millisecond}
		f := fi.Draw("p")
		if f.Err == nil || !IsTransient(f.Err) {
			t.Fatalf("want transient rate-limit error, got %v", f.Err)
		}
		if hint, ok := RetryAfterHint(f.Err); !ok || hint != 40*time.Millisecond {
			t.Fatalf("want 40ms retry-after hint, got %v ok=%v", hint, ok)
		}
	})

	t.Run("hang blocks until context death", func(t *testing.T) {
		fi := &FaultInjector{HangRate: 1}
		f := fi.Draw("p")
		if !f.Hang {
			t.Fatal("want a hang fault at rate 1")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		if err := fi.Apply(ctx, f); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want deadline exceeded from hang, got %v", err)
		}
	})

	t.Run("malformed truncates the completion", func(t *testing.T) {
		fi := &FaultInjector{MalformedRate: 1}
		f := fi.Draw("p")
		if !f.Malformed {
			t.Fatal("want a malformed fault at rate 1")
		}
		full := `{"operator":"bucketize","confidence":"high"}`
		if got := f.Corrupt(full); got == full || len(got) >= len(full) {
			t.Fatalf("want truncated completion, got %q", got)
		}
	})

	t.Run("outage window fails exactly [From,To)", func(t *testing.T) {
		fi := &FaultInjector{Outages: []OutageWindow{{From: 2, To: 5}}}
		for i := 0; i < 8; i++ {
			f := fi.Draw(fmt.Sprintf("p%d", i))
			inWindow := i >= 2 && i < 5
			if (f.Err != nil) != inWindow {
				t.Errorf("call %d: err=%v, want outage=%v", i, f.Err, inWindow)
			}
		}
		if c := fi.Counts().Outages; c != 3 {
			t.Errorf("want 3 outage faults, got %d", c)
		}
	})
}

// TestRetryAfterHonored checks the retry loop waits the server-suggested
// amount on rate-limited errors instead of the exponential schedule.
func TestRetryAfterHonored(t *testing.T) {
	const hint = 2 * retryBackoff
	var calls int64
	model := &countingModel{fail: func(string) error {
		if calls++; calls == 1 {
			return RateLimited(errors.New("slow down"), hint)
		}
		return nil
	}}
	g := New(model, Options{MaxRetries: 2})
	start := time.Now()
	if _, err := g.Complete(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < hint {
		t.Fatalf("retry waited %s; want the %s retry-after hint, not the %s backoff", elapsed, hint, retryBackoff)
	}
}

// TestRetryDeadlineBudgetCap checks the retry loop refuses to sleep past the
// call's deadline: the caller gets the real upstream error (with the budget
// arithmetic) instead of a masking context error after a pointless wait.
func TestRetryDeadlineBudgetCap(t *testing.T) {
	model := &countingModel{fail: func(string) error {
		return RateLimited(errors.New("rate limited"), time.Hour)
	}}
	g := New(model, Options{MaxRetries: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := g.Complete(ctx, "p")
	if err == nil || !strings.Contains(err.Error(), "deadline budget") {
		t.Fatalf("want a deadline-budget retry abandonment, got %v", err)
	}
	if !strings.Contains(err.Error(), "rate limited") {
		t.Fatalf("want the underlying upstream error preserved, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("abandoning retries took %s; should fail fast, not sleep toward the deadline", elapsed)
	}
}

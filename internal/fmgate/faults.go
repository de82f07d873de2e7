package fmgate

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// FaultInjector simulates an unreliable model endpoint. It sits between one
// backend of a Pool and the shared content model, and injects a
// configurable mix of fault kinds:
//
//   - transient errors (ErrorRate) — the retry loop's bread and butter;
//   - rate-limit errors (RateLimitRate) carrying a Retry-After hint the
//     retry loop backs off by;
//   - hangs (HangRate) — the call blocks until its context dies, exercising
//     hedged requests and deadline budgets;
//   - malformed output (MalformedRate) — the completion is truncated,
//     exercising the pipeline's parse-reject path;
//   - latency jitter (MaxJitter) — a uniform [0, MaxJitter) delay;
//   - scripted outage windows (Outages) — every call in a window of the
//     injector's arrival sequence fails, exercising circuit breakers.
//
// Except for outage windows (scripted over arrival order on purpose), every
// decision is a pure function of (Seed, prompt, per-prompt call index): the
// i-th call for a given prompt draws the same faults no matter how calls
// interleave across goroutines, so fault sequences are reproducible at any
// concurrency. The zero value injects nothing.
type FaultInjector struct {
	// ErrorRate is the probability a call fails with a transient error
	// before reaching the model.
	ErrorRate float64
	// RateLimitRate is the probability a call fails with a transient
	// rate-limit error carrying a RetryAfter hint.
	RateLimitRate float64
	// RetryAfter is the back-off hint attached to rate-limit errors
	// (default 25ms).
	RetryAfter time.Duration
	// HangRate is the probability a call blocks until its context is
	// cancelled instead of answering.
	HangRate float64
	// MalformedRate is the probability a successful completion is truncated
	// before being returned.
	MalformedRate float64
	// MaxJitter adds a uniform [0, MaxJitter) delay per call.
	MaxJitter time.Duration
	// Outages are scripted windows over this injector's call-arrival
	// sequence during which every call fails (transient).
	Outages []OutageWindow
	// Seed drives the fault sequences.
	Seed int64

	mu     sync.Mutex
	seq    map[string]int64 // per-prompt call index
	calls  int64            // arrival counter, drives Outages
	counts FaultCounts
}

// OutageWindow scripts a dead interval [From, To) over the injector's call
// counter: the From-th through (To-1)-th calls all fail. Deliberately
// sequence- rather than content-addressed — an outage takes down whatever
// traffic arrives during it.
type OutageWindow struct {
	From, To int64
}

// FaultCounts tallies injected faults by kind.
type FaultCounts struct {
	Transient   int64
	RateLimited int64
	Hangs       int64
	Malformed   int64
	Outages     int64
}

// Total sums all injected faults.
func (c FaultCounts) Total() int64 {
	return c.Transient + c.RateLimited + c.Hangs + c.Malformed + c.Outages
}

// Add merges another tally into c.
func (c *FaultCounts) Add(o FaultCounts) {
	c.Transient += o.Transient
	c.RateLimited += o.RateLimited
	c.Hangs += o.Hangs
	c.Malformed += o.Malformed
	c.Outages += o.Outages
}

// Fault is one call's drawn fault decision. Transport faults (Err, Hang,
// Jitter) fire before the model is consulted; Malformed corrupts the
// completion afterwards.
type Fault struct {
	// Err is a transport failure to return instead of calling the model.
	Err error
	// Hang blocks the call until its context is cancelled.
	Hang bool
	// Malformed truncates the completion text.
	Malformed bool
	// Jitter delays the call.
	Jitter time.Duration
}

// Draw decides the fault for one call of prompt. The decision is
// deterministic per (Seed, prompt, per-prompt call index) — except outage
// windows, which consult the arrival counter.
func (fi *FaultInjector) Draw(prompt string) Fault {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.seq == nil {
		fi.seq = make(map[string]int64)
	}
	n := fi.seq[prompt]
	fi.seq[prompt] = n + 1
	arrival := fi.calls
	fi.calls++

	for _, w := range fi.Outages {
		if arrival >= w.From && arrival < w.To {
			fi.counts.Outages++
			return Fault{Err: Transient(fmt.Errorf("fmgate: injected outage (call %d in window [%d,%d))", arrival, w.From, w.To))}
		}
	}

	base := fmt.Sprintf("%d|%d|%s", fi.Seed, n, prompt)
	var f Fault
	switch {
	case fi.HangRate > 0 && faultFrac("hang|"+base) < fi.HangRate:
		f.Hang = true
		fi.counts.Hangs++
	case fi.RateLimitRate > 0 && faultFrac("ratelimit|"+base) < fi.RateLimitRate:
		after := fi.RetryAfter
		if after <= 0 {
			after = 25 * time.Millisecond
		}
		f.Err = RateLimited(fmt.Errorf("fmgate: injected rate-limit fault (retry after %s)", after), after)
		fi.counts.RateLimited++
	case fi.ErrorRate > 0 && faultFrac("error|"+base) < fi.ErrorRate:
		f.Err = Transient(fmt.Errorf("fmgate: injected transient fault"))
		fi.counts.Transient++
	}
	if f.Err == nil && !f.Hang {
		if fi.MalformedRate > 0 && faultFrac("malformed|"+base) < fi.MalformedRate {
			f.Malformed = true
			fi.counts.Malformed++
		}
		if fi.MaxJitter > 0 {
			f.Jitter = time.Duration(faultFrac("jitter|"+base) * float64(fi.MaxJitter))
		}
	}
	return f
}

// Apply performs the transport side of a drawn fault: sleeps the jitter,
// hangs until cancellation, or returns the injected error. A nil result
// means the transport cleared and the model may be called.
func (fi *FaultInjector) Apply(ctx context.Context, f Fault) error {
	if f.Jitter > 0 {
		t := time.NewTimer(f.Jitter)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	if f.Hang {
		<-ctx.Done()
		return ctx.Err()
	}
	return f.Err
}

// Corrupt applies the fault's content side: a Malformed fault truncates the
// completion mid-structure (the parse-reject path downstream must cope).
func (f Fault) Corrupt(text string) string {
	if !f.Malformed {
		return text
	}
	if len(text) <= 2 {
		return `{"`
	}
	return text[:len(text)/2]
}

// Injected reports how many faults have been raised, all kinds combined.
func (fi *FaultInjector) Injected() int64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.counts.Total()
}

// Counts snapshots the per-kind fault tallies.
func (fi *FaultInjector) Counts() FaultCounts {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.counts
}

// faultFrac maps a string to a uniform [0, 1) fraction via sha256 — the same
// content-hash trick the simulators use, so fault draws are order-independent
// pure functions of their inputs.
func faultFrac(s string) float64 {
	h := sha256.Sum256([]byte(s))
	u := binary.BigEndian.Uint64(h[:8])
	return float64(u>>11) / float64(uint64(1)<<53)
}

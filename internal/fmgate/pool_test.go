package fmgate

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartfeat/internal/fm"
)

// TestBreakerTransitions drives a single breaker through a scripted fault
// window and checks every transition and counter: closed→open at the
// threshold, half-open single-probe admission, probe-failure re-open,
// probe-success reset.
func TestBreakerTransitions(t *testing.T) {
	type step struct {
		name      string
		advance   time.Duration // clock advance before the step
		probeWant bool          // expect admitProbe to grant
		outcome   string        // "fail", "ok", "" (no call)
		state     BreakerState
		opens     int64
		probes    int64
		closes    int64
	}
	steps := []step{
		{name: "first failure stays closed", outcome: "fail", state: BreakerClosed},
		{name: "second failure stays closed", outcome: "fail", state: BreakerClosed},
		{name: "threshold failure opens", outcome: "fail", state: BreakerOpen, opens: 1},
		{name: "inside cooldown: no probe", advance: 10 * time.Millisecond, state: BreakerOpen, opens: 1},
		{name: "cooldown elapsed: probe admitted, fails, re-opens", advance: 100 * time.Millisecond,
			probeWant: true, outcome: "fail", state: BreakerOpen, opens: 2, probes: 1},
		{name: "second probe succeeds and closes", advance: 100 * time.Millisecond,
			probeWant: true, outcome: "ok", state: BreakerClosed, opens: 2, probes: 2, closes: 1},
		{name: "healthy again: plain failure starts a fresh count", outcome: "fail",
			state: BreakerClosed, opens: 2, probes: 2, closes: 1},
	}

	br := newBreaker(BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond})
	now := time.Now()
	for _, s := range steps {
		now = now.Add(s.advance)
		probe := false
		if !br.closed() {
			probe = br.admitProbe(now)
		}
		if probe != s.probeWant {
			t.Fatalf("%s: probe admission = %v, want %v", s.name, probe, s.probeWant)
		}
		switch s.outcome {
		case "fail":
			br.failure(now, probe)
		case "ok":
			br.success(probe)
		}
		snap := br.snapshot()
		if snap.State != s.state || snap.Opens != s.opens || snap.Probes != s.probes || snap.Closes != s.closes {
			t.Fatalf("%s: state=%s opens=%d probes=%d closes=%d, want state=%s opens=%d probes=%d closes=%d",
				s.name, snap.State, snap.Opens, snap.Probes, snap.Closes, s.state, s.opens, s.probes, s.closes)
		}
	}
}

// TestBreakerSingleProbeAdmission: the half-open state admits exactly one
// probe at a time; a second asker is rejected until the first reports back.
func TestBreakerSingleProbeAdmission(t *testing.T) {
	br := newBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Millisecond})
	now := time.Now()
	br.failure(now, false)
	now = now.Add(10 * time.Millisecond)
	if !br.admitProbe(now) {
		t.Fatal("first probe should be admitted after cooldown")
	}
	if br.admitProbe(now) {
		t.Fatal("second concurrent probe must be rejected while the first is in flight")
	}
	// Abandoning (probe cancelled for unrelated reasons) releases the slot
	// without a verdict.
	br.abandon(true)
	if !br.admitProbe(now) {
		t.Fatal("probe slot should be free again after abandon")
	}
}

// poolOver builds a pool of plain backends over a shared model.
func poolOver(t *testing.T, model fm.Model, backends []Backend, opts PoolOptions) *Pool {
	t.Helper()
	p, err := NewPool(model, backends, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPoolScriptedOutage runs a pool whose second backend dies for a
// scripted window: the breaker must open during the window, recover through
// a half-open probe afterwards, and the pool-level counters must record
// every transition.
func TestPoolScriptedOutage(t *testing.T) {
	model := &countingModel{}
	outage := &FaultInjector{Outages: []OutageWindow{{From: 0, To: 4}}}
	p := poolOver(t, model, []Backend{
		{Name: "b1", Faults: outage, Breaker: BreakerConfig{Threshold: 2, Cooldown: 3 * time.Millisecond}},
		{Name: "b2"},
	}, PoolOptions{})
	g := New(p, Options{MaxRetries: 4, RetryBackoff: time.Millisecond, Cacheable: allCacheable})

	// b1 fails its first 4 calls: 2 open the breaker (the gateway's retries
	// fail over to b2), then cooldown-spaced half-open probes burn through
	// the rest of the window until one succeeds and closes it again.
	var m PoolMetrics
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		if _, err := g.Complete(context.Background(), fmt.Sprintf("p%d", i)); err != nil {
			t.Fatalf("call %d should survive the outage by failing over: %v", i, err)
		}
		m = p.Metrics()
		if m.Closes >= 1 && m.Backends[0].State == BreakerClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
	if m.Opens < 1 {
		t.Errorf("breaker never opened during the outage: %+v", m)
	}
	if m.Probes < 1 {
		t.Errorf("breaker never probed after cooldown: %+v", m)
	}
	if m.Closes < 1 {
		t.Errorf("breaker never closed after the window: %+v", m)
	}
	if m.Faults.Outages != 4 {
		t.Errorf("want 4 outage faults drawn, got %d", m.Faults.Outages)
	}
}

// TestHedgeLoserCancelled: the primary backend hangs, the hedge answers, and
// the losing call's context must be cancelled — its in-flight count drains
// instead of leaking a goroutine holding a slot forever.
func TestHedgeLoserCancelled(t *testing.T) {
	model := &countingModel{}
	hang := &FaultInjector{HangRate: 1}
	p := poolOver(t, model, []Backend{
		{Name: "b1", Faults: hang},
		{Name: "b2"},
	}, PoolOptions{HedgeAfter: 2 * time.Millisecond})

	text, err := p.Complete(context.Background(), "p")
	if err != nil || text != "resp:p" {
		t.Fatalf("hedged call should win: %q, %v", text, err)
	}
	m := p.Metrics()
	if m.Hedges != 1 || m.HedgeWins != 1 {
		t.Fatalf("want 1 hedge and 1 hedge win, got %+v", m)
	}
	// The loser hangs on its own attempt context; Complete's return cancels
	// it. Poll for the drain (the goroutine exits asynchronously).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if p.Metrics().Backends[0].Inflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("losing call's context was never cancelled: b1 still has an in-flight attempt")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolAllBackendsOpen: once every breaker is open, calls fail fast with
// a loud, non-transient degraded-pool error naming each backend's state.
func TestPoolAllBackendsOpen(t *testing.T) {
	model := &countingModel{}
	dead := func() *FaultInjector { return &FaultInjector{ErrorRate: 1} }
	p := poolOver(t, model, []Backend{
		{Name: "b1", Faults: dead(), Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Hour}},
		{Name: "b2", Faults: dead(), Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Hour}},
	}, PoolOptions{})

	ctx := context.Background()
	// Two failing calls open both breakers (each call fails on a different
	// least-loaded backend).
	for i := 0; i < 2; i++ {
		if _, err := p.Complete(ctx, fmt.Sprintf("p%d", i)); err == nil {
			t.Fatalf("call %d should fail on a dead backend", i)
		}
	}
	_, err := p.Complete(ctx, "p-final")
	if !IsAllBackendsOpen(err) {
		t.Fatalf("want AllBackendsOpenError, got %v", err)
	}
	if IsTransient(err) {
		t.Fatal("degraded-pool error must not be transient: retrying a dead pool burns budget silently")
	}
	for _, name := range []string{"b1", "b2", "open"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error should name %q, got: %v", name, err)
		}
	}
	if p.Degraded() == nil {
		t.Error("pool should remember its degraded failure for post-run checks")
	}
	if m := p.Metrics(); m.AllOpen != 1 {
		t.Errorf("want all_open=1, got %d", m.AllOpen)
	}
}

// TestPoolDeadlineBudget: a hanging backend cannot hold a call hostage — the
// deadline budget converts the hang into a transient error while the
// caller's own context stays alive.
func TestPoolDeadlineBudget(t *testing.T) {
	model := &countingModel{}
	hang := &FaultInjector{HangRate: 1}
	p := poolOver(t, model, []Backend{{Name: "b1", Faults: hang}},
		PoolOptions{Deadline: 10 * time.Millisecond})

	ctx := context.Background()
	_, err := p.Complete(ctx, "p")
	if err == nil || !IsTransient(err) {
		t.Fatalf("want a transient deadline-budget error, got %v", err)
	}
	if !strings.Contains(err.Error(), "deadline budget") {
		t.Fatalf("error should name the deadline budget, got %v", err)
	}
	if ctx.Err() != nil {
		t.Fatal("caller context must stay alive after a per-call deadline")
	}
	if m := p.Metrics(); m.DeadlineExceeded != 1 {
		t.Errorf("want deadline_exceeded=1, got %+v", m)
	}
}

// TestPoolResolveOnce: a hedged pair must consume exactly one recorded
// completion per logical call — the runner-up returns the claimer's result
// instead of popping the replay queue twice.
func TestPoolResolveOnce(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fm.jsonl")

	// Record two completions for one *sampling* prompt (non-sticky replay:
	// each entry is a distinct draw, double-pops would exhaust it early).
	rec, err := NewRecordStore(path)
	if err != nil {
		t.Fatal(err)
	}
	key := contentKey("", "counting", "sample")
	for i := 0; i < 2; i++ {
		if err := rec.record(key, "sample", fmt.Sprintf("draw-%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	store, err := OpenReplayStore(path)
	if err != nil {
		t.Fatal(err)
	}
	content := NewStoreModel(store, "counting", "")
	hang := &FaultInjector{HangRate: 1}
	p := poolOver(t, nil, []Backend{
		{Name: "b1", Model: content, Faults: hang},
		{Name: "b2", Model: content},
	}, PoolOptions{HedgeAfter: time.Millisecond})

	notCacheable := func(string) bool { return false }
	g := New(p, Options{Cacheable: notCacheable})
	for i := 0; i < 2; i++ {
		text, err := g.Complete(context.Background(), "sample")
		if err != nil {
			t.Fatalf("hedged call %d: %v", i, err)
		}
		if want := fmt.Sprintf("draw-%d", i); text != want {
			t.Fatalf("call %d popped out of order: got %q, want %q (a hedge double-popped?)", i, text, want)
		}
	}
	// Queue exhausted: a third call must miss loudly, proving exactly two
	// entries were consumed by two logical calls.
	if _, err := g.Complete(context.Background(), "sample"); err == nil || !strings.Contains(err.Error(), "replay miss") {
		t.Fatalf("want a replay miss after the recorded draws are spent, got %v", err)
	}
}

// TestPoolGatewayReplayEquivalence is the chaos pipeline in miniature: a
// recorded run replayed through a faulted, hedged 3-backend pool must return
// byte-identical completions.
func TestPoolGatewayReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fm.jsonl")
	prompts := make([]string, 30)
	for i := range prompts {
		prompts[i] = fmt.Sprintf("prompt-%d", i)
	}

	// Record a clean sequential run.
	rec, err := NewRecordStore(path)
	if err != nil {
		t.Fatal(err)
	}
	model := &countingModel{}
	clean := New(model, Options{Store: rec, Cacheable: allCacheable})
	want := make([]string, len(prompts))
	for i, pr := range prompts {
		if want[i], err = clean.Complete(context.Background(), pr); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay through a chaotic pool: faults, an outage, hedging, breakers.
	store, err := OpenReplayStore(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := &PoolSpec{
		Backends: 3,
		Hedge:    500 * time.Microsecond,
		Deadline: 2 * time.Second,
		Breaker:  BreakerConfig{Threshold: 3, Cooldown: 5 * time.Millisecond},
		Retries:  8,
		Faults: FaultSpec{
			Rate:       0.1,
			RateLimit:  0.05,
			Jitter:     time.Millisecond,
			RetryAfter: time.Millisecond,
			Outage:     "b2:3-10",
		},
		Seed: 11,
	}
	g, err := PoolGateway(model, Options{Store: store, Cacheable: allCacheable}, spec)
	if err != nil {
		t.Fatal(err)
	}
	before := atomic.LoadInt64(&model.calls)
	for i, pr := range prompts {
		got, err := g.Complete(context.Background(), pr)
		if err != nil {
			t.Fatalf("chaos replay of %s: %v", pr, err)
		}
		if got != want[i] {
			t.Fatalf("chaos replay diverged on %s: got %q, want %q", pr, got, want[i])
		}
	}
	if after := atomic.LoadInt64(&model.calls); after != before {
		t.Fatalf("replay made %d live model calls; the store must be the only content source", after-before)
	}
	m, ok := g.PoolMetrics()
	if !ok {
		t.Fatal("gateway over a pool should expose pool metrics")
	}
	if m.Faults.Total() == 0 {
		t.Error("chaos replay drew no faults; the fault model was not exercised")
	}
	if m.Faults.Outages == 0 {
		t.Error("scripted outage window never fired")
	}
}

// TestPoolWeightedSelection: a heavier backend absorbs proportionally more
// idle-pool picks.
func TestPoolWeightedSelection(t *testing.T) {
	model := &countingModel{}
	p := poolOver(t, model, []Backend{
		{Name: "light", Weight: 1},
		{Name: "heavy", Weight: 4},
	}, PoolOptions{})
	for i := 0; i < 50; i++ {
		if _, err := p.Complete(context.Background(), fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	m := p.Metrics()
	if m.Backends[1].Picks <= m.Backends[0].Picks {
		t.Errorf("heavy backend picked %d times, light %d; weight 4 should dominate sequential picks",
			m.Backends[1].Picks, m.Backends[0].Picks)
	}
}

// TestPoolRateLimitCap: a rate-limited backend delays (not fails) calls
// beyond its bucket.
func TestPoolRateLimitCap(t *testing.T) {
	model := &countingModel{}
	p := poolOver(t, model, []Backend{
		{Name: "b1", Rate: 100, Burst: 1},
	}, PoolOptions{})
	start := time.Now()
	for i := 0; i < 4; i++ {
		if _, err := p.Complete(context.Background(), fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Burst 1 at 100/s: calls 2..4 wait ~10ms each.
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("4 calls through a 100/s burst-1 bucket took %s; want >= ~30ms of pacing", elapsed)
	}
	if w := p.Metrics().Backends[0].RateWaits; w < 3 {
		t.Errorf("want >= 3 rate-paced calls, got %d", w)
	}
}

// errNotPooled pins the PoolMetrics accessor's negative path.
func TestPoolMetricsAbsentOnPlainGateway(t *testing.T) {
	g := New(&countingModel{}, Options{})
	if _, ok := g.PoolMetrics(); ok {
		t.Fatal("plain gateway must not report pool metrics")
	}
	if g.PoolDegraded() != nil {
		t.Fatal("plain gateway must not report pool degradation")
	}
}

package fmgate

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"smartfeat/internal/fm"
	"smartfeat/internal/obs"
)

// Backend configures one member of a Pool.
type Backend struct {
	// Name labels the backend in metrics and errors (default "bN").
	Name string
	// Faults injects this backend's transport fault model (optional).
	Faults *FaultInjector
	// Breaker tunes this backend's circuit breaker.
	Breaker BreakerConfig
}

// backend is a Backend plus its runtime state. Counters are registry-backed
// instruments, registered per backend (label backend=<name>) by NewPool.
type backend struct {
	Backend
	br *breaker

	inflight  obs.Gauge
	picks     obs.Counter
	wins      obs.Counter
	failures  obs.Counter
	hedgeWins obs.Counter
}

// PoolOptions tunes pool-level behaviour.
type PoolOptions struct {
	// HedgeAfter fires a duplicate request on a second backend when the
	// first has not answered within this delay; the first success wins and
	// the loser's context is cancelled (0 = hedging off).
	HedgeAfter time.Duration
	// Deadline is the per-call time budget. A call that exceeds it fails
	// with a transient error (the gateway's retry loop may try again,
	// likely landing on a different backend), so one stuck backend can
	// never hold a caller hostage (0 = no budget). Attempts run under the
	// budget's context: an unhedged call, whose primary runs on the
	// caller's goroutine, relies on the transport and the model returning
	// when it ends, as the fault injector's hangs and every model here do.
	Deadline time.Duration
}

// Pool spreads completions across N backends that are replicas of one
// logical model, with least-in-flight selection, per-backend circuit
// breakers, hedged requests and per-call deadline budgets. It implements
// fm.Model, so a Gateway stacks directly on top:
// Gateway(cache/dedup/record/retry) → Pool(transport) → model.
//
// Because the backends are replicas, each logical call resolves content
// exactly once: the first backend transport to clear its faults performs the
// single model call, and a hedged runner-up returns that same result. This
// is what keeps record/replay byte-exact under hedging — one logical call
// pops exactly one recorded completion no matter how many backends raced —
// and it means transport chaos (faults, outages, breakers, hedges) can never
// change *what* is answered, only how it got there.
type Pool struct {
	model    fm.Model
	backends []*backend
	opts     PoolOptions

	calls            obs.Counter
	hedges           obs.Counter
	hedgeWins        obs.Counter
	deadlineExceeded obs.Counter
	allOpen          obs.Counter
	degraded         atomic.Pointer[AllBackendsOpenError]
}

// NewPool builds a pool of backends over a shared content model.
func NewPool(model fm.Model, backends []Backend, opts PoolOptions) (*Pool, error) {
	if len(backends) == 0 {
		return nil, errors.New("fmgate: pool needs at least one backend")
	}
	p := &Pool{model: model, opts: opts}
	seen := make(map[string]bool)
	for i, cfg := range backends {
		if cfg.Name == "" {
			cfg.Name = fmt.Sprintf("b%d", i+1)
		}
		if seen[cfg.Name] {
			return nil, fmt.Errorf("fmgate: duplicate backend name %q", cfg.Name)
		}
		seen[cfg.Name] = true
		p.backends = append(p.backends, &backend{Backend: cfg, br: newBreaker(cfg.Breaker)})
	}
	reg := obs.Default
	reg.RegisterCounter("fmpool_calls_total", "Logical completions asked of a backend pool.", &p.calls)
	reg.RegisterCounter("fmpool_hedges_total", "Hedged duplicate attempts fired.", &p.hedges)
	reg.RegisterCounter("fmpool_hedge_wins_total", "Logical calls won by the hedged attempt.", &p.hedgeWins)
	reg.RegisterCounter("fmpool_deadline_exceeded_total", "Calls that blew their per-call deadline budget.", &p.deadlineExceeded)
	reg.RegisterCounter("fmpool_all_open_total", "Calls rejected because every breaker was open.", &p.allOpen)
	for _, b := range p.backends {
		reg.RegisterGauge("fmpool_backend_inflight", "Calls currently in flight on a backend.", &b.inflight, "backend", b.Name)
		reg.RegisterCounter("fmpool_backend_picks_total", "Times a backend was selected.", &b.picks, "backend", b.Name)
		reg.RegisterCounter("fmpool_backend_wins_total", "Attempts whose transport cleared on a backend.", &b.wins, "backend", b.Name)
		reg.RegisterCounter("fmpool_backend_failures_total", "Transport failures charged to a backend.", &b.failures, "backend", b.Name)
		reg.RegisterCounter("fmpool_backend_hedge_wins_total", "Logical calls a backend won as the hedge.", &b.hedgeWins, "backend", b.Name)
		reg.RegisterCounter("fmpool_breaker_opens_total", "Circuit-breaker open transitions.", &b.br.opens, "backend", b.Name)
		reg.RegisterCounter("fmpool_breaker_probes_total", "Half-open probes admitted.", &b.br.probes, "backend", b.Name)
		reg.RegisterCounter("fmpool_breaker_closes_total", "Circuit-breaker close transitions.", &b.br.closes, "backend", b.Name)
	}
	return p, nil
}

// Name implements fm.Model: the logical model's name (content addresses must
// not depend on transport topology).
func (p *Pool) Name() string { return p.model.Name() }

// Usage implements fm.Model: the content model's accounting.
func (p *Pool) Usage() fm.Usage { return p.model.Usage() }

// ResetUsage implements fm.Model.
func (p *Pool) ResetUsage() { p.model.ResetUsage() }

// poolCall is one logical completion's resolve-once state, shared by the
// primary and any hedged attempt.
type poolCall struct {
	prompt string
	claim  atomic.Bool
	done   chan struct{} // closed on resolve; nil when no hedge can fire
	text   string
	err    error
	won    atomic.Bool // a terminal outcome was returned to the caller
}

// attemptResult is one backend attempt's outcome. terminal means the content
// was resolved (success or a model-level error) — not a transport failure,
// so no failover applies.
type attemptResult struct {
	text     string
	err      error
	terminal bool
	backend  *backend
}

// Complete implements fm.Model: pick a backend, optionally hedge, race the
// transports, fail loudly when every breaker is open. When no hedge can
// fire (hedging off, or a single backend) the primary attempt is the call's
// only one and runs on the caller's goroutine.
func (p *Pool) Complete(parent context.Context, prompt string) (string, error) {
	p.calls.Inc()
	ctx := parent
	if p.opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, p.opts.Deadline)
		defer cancel()
	}

	primary, probe, ok := p.pick(nil)
	if !ok {
		p.allOpen.Inc()
		e := p.allOpenError()
		p.degraded.CompareAndSwap(nil, e)
		return "", e
	}

	call := &poolCall{prompt: prompt}
	if p.opts.HedgeAfter <= 0 || len(p.backends) == 1 {
		r := p.attempt(ctx, parent, primary, probe, false, call)
		if !r.terminal && ctx.Err() != nil {
			return "", p.budgetErr(parent, primary)
		}
		return r.text, r.err
	}

	call.done = make(chan struct{})
	out := make(chan attemptResult, 2)
	actx1, cancel1 := context.WithCancel(ctx)
	defer cancel1()
	var cancel2 context.CancelFunc
	defer func() {
		if cancel2 != nil {
			cancel2()
		}
	}()
	go func() { out <- p.attempt(actx1, parent, primary, probe, false, call) }()
	pending := 1

	t := time.NewTimer(p.opts.HedgeAfter)
	defer t.Stop()
	hedgeC := t.C
	var hedged *backend
	var firstErr error
	hedge := func() {
		hedgeC = nil
		b, prb, ok := p.pick(primary)
		if !ok {
			return // nowhere to hedge to
		}
		hedged = b
		p.hedges.Inc()
		var actx2 context.Context
		actx2, cancel2 = context.WithCancel(ctx)
		go func() { out <- p.attempt(actx2, parent, b, prb, true, call) }()
		pending++
	}
	for {
		select {
		case r := <-out:
			pending--
			if r.terminal {
				call.won.Store(true)
				if r.err == nil && r.backend == hedged {
					p.hedgeWins.Inc()
					hedged.hedgeWins.Inc()
				}
				return r.text, r.err
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if pending > 0 {
				continue // the rival attempt may still win
			}
			if hedgeC != nil {
				// The primary failed before the hedge timer fired: hedge
				// now rather than sitting out the rest of the delay with
				// nothing in flight.
				hedge()
			}
			if pending == 0 {
				return "", firstErr
			}
		case <-hedgeC:
			hedge()
		case <-ctx.Done():
			return "", p.budgetErr(parent, primary)
		}
	}
}

// budgetErr is the error of a call whose context ended before an attempt
// resolved it: the caller's own cancellation, or else the deadline budget.
func (p *Pool) budgetErr(parent context.Context, primary *backend) error {
	if err := parent.Err(); err != nil {
		return err
	}
	p.deadlineExceeded.Inc()
	return Transient(fmt.Errorf("fmgate: call exceeded its %s deadline budget on backend %s", p.opts.Deadline, primary.Name))
}

// pick selects a backend. Recovery has priority: an open backend whose
// cooldown has elapsed gets its single half-open probe — without this a
// healthy remainder would absorb all traffic and an opened backend could
// never close again. Otherwise the closed backend with the fewest calls in
// flight wins (the first on a tie).
func (p *Pool) pick(exclude *backend) (*backend, bool, bool) {
	now := time.Now()
	for _, c := range p.backends {
		if c == exclude || c.br.closed() {
			continue
		}
		if c.br.admitProbe(now) {
			c.picks.Inc()
			return c, true, true
		}
	}
	var best *backend
	var bestLoad int64
	for _, c := range p.backends {
		if c == exclude || !c.br.closed() {
			continue
		}
		if load := c.inflight.Value(); best == nil || load < bestLoad {
			best, bestLoad = c, load
		}
	}
	if best == nil {
		return nil, false, false
	}
	best.picks.Inc()
	return best, false, true
}

// attempt runs one backend attempt and returns its outcome. Each attempt is
// one fm.attempt span (when tracing): backend name, probe/hedge flags, and
// whether the transport cleared.
func (p *Pool) attempt(ctx, parent context.Context, b *backend, probe, hedge bool, call *poolCall) attemptResult {
	ctx, span := obs.StartSpan(ctx, "fm.attempt", obs.String("backend", b.Name), obs.Bool("probe", probe), obs.Bool("hedge", hedge))
	r := p.runAttempt(ctx, parent, b, probe, call)
	r.backend = b
	if span != nil {
		if r.terminal {
			span.SetAttr("outcome", "terminal")
		} else {
			span.SetAttr("outcome", "transport-error")
		}
		span.End()
	}
	return r
}

func (p *Pool) runAttempt(ctx, parent context.Context, b *backend, probe bool, call *poolCall) attemptResult {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)

	var f Fault
	if b.Faults != nil {
		f = b.Faults.Draw(call.prompt)
		if err := b.Faults.Apply(ctx, f); err != nil {
			p.verdict(b, probe, parent, call, err)
			return attemptResult{err: fmt.Errorf("fmgate: backend %s: %w", b.Name, err)}
		}
	}

	text, err := p.resolveContent(ctx, call)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// The content call died on our context, not on a model verdict.
		p.verdict(b, probe, parent, call, err)
		return attemptResult{err: err}
	}
	// Transport cleared: the model's answer — success or an application
	// error — is a healthy-backend outcome, not a breaker signal.
	b.br.success(probe)
	b.wins.Inc()
	if err == nil {
		text = f.Corrupt(text)
	}
	return attemptResult{text: text, err: err, terminal: true}
}

// verdict classifies a transport failure for the breaker. A cancelled loser
// (the logical call already has a winner) or a cancelled run says nothing
// about backend health, so the probe slot is released without a verdict;
// everything else — injected faults, outages, deadline timeouts — counts
// against the backend.
func (p *Pool) verdict(b *backend, probe bool, parent context.Context, call *poolCall, err error) {
	ctxErr := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if ctxErr && (call.won.Load() || parent.Err() != nil) {
		b.br.abandon(probe)
		return
	}
	b.failures.Inc()
	b.br.failure(time.Now(), probe)
}

// resolveContent performs (or joins) the single content call of a logical
// completion. The first transport to clear its faults claims it; a hedged
// runner-up waits for the claimer's result.
func (p *Pool) resolveContent(ctx context.Context, call *poolCall) (string, error) {
	if call.claim.CompareAndSwap(false, true) {
		call.text, call.err = p.model.Complete(ctx, call.prompt)
		if call.done != nil {
			close(call.done)
		}
		return call.text, call.err
	}
	select {
	case <-call.done:
		return call.text, call.err
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// AllBackendsOpenError reports a fully-degraded pool: every backend's
// circuit breaker is open and none is due a probe. It is deliberately not
// transient — burning the retry budget against a dead pool only delays the
// loud failure the operator needs to see.
type AllBackendsOpenError struct {
	// States maps backend name to its breaker snapshot at failure time.
	Names  []string
	States []BreakerSnapshot
}

// Error renders the per-backend breaker state.
func (e *AllBackendsOpenError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fmgate: all %d backends circuit-open, pool degraded (", len(e.Names))
	for i, n := range e.Names {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s: %s", n, e.States[i])
	}
	b.WriteString(")")
	return b.String()
}

// IsAllBackendsOpen reports whether err is (or wraps) a degraded-pool error.
func IsAllBackendsOpen(err error) bool {
	var e *AllBackendsOpenError
	return errors.As(err, &e)
}

func (p *Pool) allOpenError() *AllBackendsOpenError {
	e := &AllBackendsOpenError{}
	for _, b := range p.backends {
		e.Names = append(e.Names, b.Name)
		e.States = append(e.States, b.br.snapshot())
	}
	return e
}

// Degraded reports the first fully-circuit-open failure this pool returned,
// if any. A pipeline whose error-tolerance swallowed such fail-fast errors
// may "complete" on degraded content; callers check this after a run to fail
// loudly instead of trusting the result.
func (p *Pool) Degraded() error {
	if e := p.degraded.Load(); e != nil {
		return e
	}
	return nil
}

// BackendMetrics is one backend's counters.
type BackendMetrics struct {
	Name      string
	State     BreakerState
	Picks     int64
	Wins      int64
	Failures  int64
	HedgeWins int64
	Inflight  int64
	Opens     int64
	Probes    int64
	Closes    int64
	Faults    FaultCounts
}

// String renders a one-line backend summary.
func (m BackendMetrics) String() string {
	return fmt.Sprintf("%s[%s] picks=%d wins=%d failures=%d hedge_wins=%d opens=%d probes=%d closes=%d faults=%d",
		m.Name, m.State, m.Picks, m.Wins, m.Failures, m.HedgeWins, m.Opens, m.Probes, m.Closes, m.Faults.Total())
}

// PoolMetrics is a point-in-time snapshot of pool counters.
type PoolMetrics struct {
	Calls            int64
	Hedges           int64
	HedgeWins        int64
	DeadlineExceeded int64
	AllOpen          int64
	Opens            int64 // breaker transitions, summed across backends
	Probes           int64
	Closes           int64
	Faults           FaultCounts // injected faults, summed across backends
	Backends         []BackendMetrics
}

// String renders the one-line pool summary (per-backend lines are separate).
func (m PoolMetrics) String() string {
	return fmt.Sprintf("calls=%d hedges=%d hedge_wins=%d deadline_exceeded=%d all_open=%d breaker_opens=%d breaker_probes=%d breaker_closes=%d rate_limited=%d faults_injected=%d",
		m.Calls, m.Hedges, m.HedgeWins, m.DeadlineExceeded, m.AllOpen, m.Opens, m.Probes, m.Closes, m.Faults.RateLimited, m.Faults.Total())
}

// Metrics snapshots the pool and per-backend counters.
func (p *Pool) Metrics() PoolMetrics {
	m := PoolMetrics{
		Calls:            p.calls.Value(),
		Hedges:           p.hedges.Value(),
		HedgeWins:        p.hedgeWins.Value(),
		DeadlineExceeded: p.deadlineExceeded.Value(),
		AllOpen:          p.allOpen.Value(),
	}
	for _, b := range p.backends {
		snap := b.br.snapshot()
		bm := BackendMetrics{
			Name:      b.Name,
			State:     snap.State,
			Picks:     b.picks.Value(),
			Wins:      b.wins.Value(),
			Failures:  b.failures.Value(),
			HedgeWins: b.hedgeWins.Value(),
			Inflight:  b.inflight.Value(),
			Opens:     snap.Opens,
			Probes:    snap.Probes,
			Closes:    snap.Closes,
		}
		if b.Faults != nil {
			bm.Faults = b.Faults.Counts()
		}
		m.Opens += bm.Opens
		m.Probes += bm.Probes
		m.Closes += bm.Closes
		m.Faults.Add(bm.Faults)
		m.Backends = append(m.Backends, bm)
	}
	return m
}

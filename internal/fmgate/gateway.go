// Package fmgate is the foundation-model gateway: the traffic-handling layer
// between SMARTFEAT's components and any fm.Model. The paper's efficiency
// argument (§3-4) is that *feature-level* interaction keeps FM traffic small;
// this package makes whatever traffic remains cheap, concurrent and
// replayable:
//
//   - a content-addressed tiered completion cache — sharded in-process LRU,
//     then a cross-process read-through index over record-store shard
//     directories (DiskCache), then upstream — so repeated deterministic
//     prompts are served without a model call and a completion one worker
//     paid for is served to its peers at $0;
//   - an on-disk record/replay store: a record store appends every upstream
//     outcome, and a replay store becomes the gateway's model, so a recorded
//     run replays byte-identical completions with zero simulated cost and
//     latency through the same cache, dedup and concurrency layers;
//   - in-flight deduplication (singleflight) so concurrent identical prompts
//     share one upstream call;
//   - a bounded-concurrency asynchronous submitter (Submit) that the
//     scenario-2 row-level loop fans rows out on;
//   - retry with exponential backoff on transient upstream errors (a Pool's
//     per-backend FaultInjector raises them in resilience testing);
//   - per-role routing (operator selector vs function generator) with
//     usage/metrics snapshots for the efficiency harness.
//
// A Gateway implements fm.Model, so every existing call site can be pointed
// at a gateway without knowing about any of the above.
package fmgate

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"smartfeat/internal/fm"
	"smartfeat/internal/obs"
	"smartfeat/internal/retryafter"
)

// Options configures a Gateway. The zero value is a usable pass-through:
// bounded concurrency, no cache, no store, no retries, no faults.
type Options struct {
	// Concurrency bounds in-flight upstream model calls (default 8).
	Concurrency int
	// Scope namespaces the gateway's content addresses (cache keys and
	// record/replay store keys). Gateways sharing one Store but serving
	// logically independent call sequences — e.g. the per-downstream-model
	// CAAFE sessions inside one grid cell, which reissue identical prompts
	// from identically-seeded simulators — set distinct scopes so replay
	// pops each session's own recorded queue in its own order instead of
	// interleaving across sessions. Empty keeps the historical unscoped
	// keys (recordings made before scopes existed stay replayable).
	Scope string
	// CacheSize is the LRU capacity in completions; 0 disables caching.
	CacheSize int
	// Cacheable gates which prompts may be cached and deduplicated.
	// Nil means fm.CacheableTask (sampling prompts excluded — reissuing an
	// identical sampling prompt must draw a fresh candidate).
	Cacheable func(prompt string) bool
	// Store is the record/replay store (optional). A record store
	// (NewRecordStore) appends every upstream outcome. A replay store
	// (OpenReplayStore, or a replaying StoreSet's shard) becomes the model:
	// the gateway serves it through a StoreModel instead of the model it was
	// given, counts its completions as Replayed, and neither records nor
	// reads Disk. A replay miss is an error: a replayed run never silently
	// falls through to paid traffic.
	Store *Store
	// Disk is the cross-process tier of the completion cache (optional): a
	// content-addressed read-through index over a shard directory, checked
	// after the in-process LRU and before upstream. A disk hit costs $0 and
	// is promoted into the LRU. Ignored with a replay Store (the recording
	// is already an exact, cheaper source). When Disk is set and CacheSize is
	// 0, the gateway still runs an in-process LRU in promote-only mode:
	// only disk-tier hits (replay-grade outcomes) populate it, never fresh
	// upstream completions, so enabling the tier cannot change results for
	// configurations whose fingerprint says caching is off.
	Disk *DiskCache
	// MaxRetries is how many times a transient upstream error is retried
	// (default 0 — fail fast; the fault-injection tests set it).
	MaxRetries int
	// RetryBackoff is the first retry delay, doubling per attempt
	// (default 50ms when MaxRetries > 0).
	RetryBackoff time.Duration
	// Role labels this gateway's series in the process-wide obs registry
	// (fm_requests_total{role=...} and friends) — typically "selector",
	// "generator" or "caafe". Empty registers under role="".
	Role string
}

// Metrics is a point-in-time snapshot of gateway traffic counters.
type Metrics struct {
	// Requests is every completion asked of the gateway.
	Requests int64
	// UpstreamCalls reached the wrapped model (after cache/dedup).
	UpstreamCalls int64
	// CacheHits were served from the in-memory completion cache.
	CacheHits int64
	// DiskHits were served from the cross-process disk tier.
	DiskHits int64
	// InflightShares joined an identical in-flight upstream call.
	InflightShares int64
	// Replayed were served from a replay store: the upstream calls of a
	// gateway whose model is a recording.
	Replayed int64
	// Retries counts upstream attempts beyond the first.
	Retries int64
	// Errors counts requests that returned an error.
	Errors int64
}

// String renders a one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("requests=%d upstream=%d cache_hits=%d disk_hits=%d inflight_shares=%d replayed=%d retries=%d errors=%d",
		m.Requests, m.UpstreamCalls, m.CacheHits, m.DiskHits, m.InflightShares, m.Replayed, m.Retries, m.Errors)
}

// Saved reports how many completions were served without an upstream call.
func (m Metrics) Saved() int64 { return m.CacheHits + m.DiskHits + m.InflightShares + m.Replayed }

// Add merges another snapshot into m (aggregating across gateways).
func (m *Metrics) Add(o Metrics) {
	m.Requests += o.Requests
	m.UpstreamCalls += o.UpstreamCalls
	m.CacheHits += o.CacheHits
	m.DiskHits += o.DiskHits
	m.InflightShares += o.InflightShares
	m.Replayed += o.Replayed
	m.Retries += o.Retries
	m.Errors += o.Errors
}

// call is one in-flight upstream completion that concurrent identical
// prompts can share.
type call struct {
	done chan struct{}
	text string
	err  error
}

// Gateway wraps an fm.Model with caching, deduplication, bounded-concurrency
// submission, retries and record/replay. It implements fm.Model and
// fm.Submitter and is safe for concurrent use.
type Gateway struct {
	model fm.Model
	opts  Options
	sem   chan struct{}
	// replay marks a gateway whose model is a recording: its upstream calls
	// count as Replayed and report the "replay" outcome.
	replay bool

	mu     sync.Mutex
	flight map[string]*call

	// cache is the in-process tier: an N-way sharded LRU, internally locked
	// (deliberately outside g.mu so hits never contend with singleflight
	// bookkeeping). promoteOnly restricts population to disk-tier hits —
	// see Options.Disk.
	cache       *shardedCache
	promoteOnly bool

	// Registry-backed traffic instruments: each gateway owns its own
	// counters (so per-instance Metrics snapshots stay exact) and registers
	// them as contributors to the process-wide obs series for its role.
	ins gwInstruments
}

// gwInstruments are the registry-backed counters behind Metrics, plus the
// request latency histogram surfaced as fm_request_seconds{role}.
type gwInstruments struct {
	requests       obs.Counter
	upstreamCalls  obs.Counter
	cacheHits      obs.Counter
	inflightShares obs.Counter
	replayed       obs.Counter
	retries        obs.Counter
	errors         obs.Counter
	latency        *obs.Histogram

	// Tiered completion-cache instruments (fmcache_* series; unlabeled by
	// role — the cache is content-addressed across roles, so per-tier totals
	// are what matters).
	fmcacheHitsMem   obs.Counter
	fmcacheHitsDisk  obs.Counter
	fmcacheMisses    obs.Counter
	fmcacheEvictions obs.Counter
	fmcacheMemBytes  obs.Gauge
}

// New builds a gateway over the model, or over the recording when
// opts.Store is a replay store.
func New(model fm.Model, opts Options) *Gateway {
	model, replay := replayModel(model, &opts)
	return newGateway(model, opts, replay)
}

// replayModel resolves the model a gateway talks to: the recording itself
// when opts.Store is a replay store. A replaying gateway never records and
// never reads the disk tier, so Store and Disk are taken out of opts.
func replayModel(model fm.Model, opts *Options) (fm.Model, bool) {
	if opts.Store == nil || !opts.Store.replaying() {
		return model, false
	}
	replay := NewStoreModel(opts.Store, model.Name(), opts.Scope)
	opts.Store, opts.Disk = nil, nil
	return replay, true
}

// newGateway builds a gateway over an already resolved model; replay marks
// the model as a recording.
func newGateway(model fm.Model, opts Options, replay bool) *Gateway {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.Cacheable == nil {
		opts.Cacheable = fm.CacheableTask
	}
	if opts.MaxRetries > 0 && opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 50 * time.Millisecond
	}
	g := &Gateway{
		model:  model,
		opts:   opts,
		sem:    make(chan struct{}, opts.Concurrency),
		replay: replay,
		flight: make(map[string]*call),
	}
	if opts.CacheSize > 0 {
		g.cache = newShardedCache(opts.CacheSize, &g.ins.fmcacheEvictions, &g.ins.fmcacheMemBytes)
	} else if opts.Disk != nil {
		g.cache = newShardedCache(defaultPromoteCacheSize, &g.ins.fmcacheEvictions, &g.ins.fmcacheMemBytes)
		g.promoteOnly = true
	}
	g.ins.latency = obs.NewHistogram(obs.TimeBuckets...)
	reg, role := obs.Default, opts.Role
	reg.RegisterCounter("fm_requests_total", "Completions asked of an fmgate gateway.", &g.ins.requests, "role", role)
	reg.RegisterCounter("fm_upstream_calls_total", "Completions that reached the wrapped model.", &g.ins.upstreamCalls, "role", role)
	reg.RegisterCounter("fm_cache_hits_total", "Completions served from the in-memory LRU cache.", &g.ins.cacheHits, "role", role)
	reg.RegisterCounter("fm_inflight_shares_total", "Completions that joined an identical in-flight call.", &g.ins.inflightShares, "role", role)
	reg.RegisterCounter("fm_replayed_total", "Completions served from the record/replay store.", &g.ins.replayed, "role", role)
	reg.RegisterCounter("fm_retries_total", "Upstream attempts beyond the first.", &g.ins.retries, "role", role)
	reg.RegisterCounter("fm_errors_total", "Requests that returned an error.", &g.ins.errors, "role", role)
	reg.RegisterHistogram("fm_request_seconds", "End-to-end gateway request latency.", g.ins.latency, "role", role)
	reg.RegisterCounter("fmcache_hits_total", "Tiered completion-cache hits by serving tier.", &g.ins.fmcacheHitsMem, "tier", "mem")
	reg.RegisterCounter("fmcache_hits_total", "Tiered completion-cache hits by serving tier.", &g.ins.fmcacheHitsDisk, "tier", "disk")
	reg.RegisterCounter("fmcache_misses_total", "Completions that missed every cache tier.", &g.ins.fmcacheMisses)
	reg.RegisterCounter("fmcache_evictions_total", "In-process LRU evictions.", &g.ins.fmcacheEvictions)
	reg.RegisterGauge("fmcache_bytes", "Resident completion-cache bytes by tier.", &g.ins.fmcacheMemBytes, "tier", "mem")
	return g
}

// defaultPromoteCacheSize is the promote-only LRU capacity used when a disk
// tier is configured without an explicit CacheSize.
const defaultPromoteCacheSize = 1 << 14

// Name implements fm.Model.
func (g *Gateway) Name() string { return g.model.Name() }

// Usage implements fm.Model: accounting of the *upstream* model. Completions
// served from cache or dedup cost nothing, and a replaying gateway's model is
// the recording, so a fully replayed run reports zero calls and zero
// simulated cost.
func (g *Gateway) Usage() fm.Usage { return g.model.Usage() }

// ResetUsage implements fm.Model.
func (g *Gateway) ResetUsage() { g.model.ResetUsage() }

// contentKey is the shared content address of a prompt for a named model
// under an optional scope — the cache key and the record/replay store key,
// used identically by Gateway and StoreModel so a recording made through one
// replays through the other.
func contentKey(scope, name, prompt string) string {
	s := name + "\x00" + prompt
	if scope != "" {
		s = scope + "\x00" + s
	}
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:16])
}

// Key returns the content address of a prompt for this gateway's model: the
// cache key and the record/replay store key. A non-empty Options.Scope is
// mixed in, so scoped gateways sharing one store never collide.
func (g *Gateway) Key(prompt string) string {
	return contentKey(g.opts.Scope, g.model.Name(), prompt)
}

// Complete implements fm.Model.
func (g *Gateway) Complete(ctx context.Context, prompt string) (string, error) {
	text, _, err := g.complete(ctx, prompt)
	return text, err
}

// Submit enqueues a completion and returns a single-result channel, bounded
// by the gateway's concurrency limit. It implements fm.Submitter; the
// row-level loop submits every row up front and collects results in order.
func (g *Gateway) Submit(ctx context.Context, prompt string) <-chan fm.Result {
	out := make(chan fm.Result, 1)
	go func() {
		text, cached, err := g.complete(ctx, prompt)
		out <- fm.Result{Text: text, Cached: cached, Err: err}
	}()
	return out
}

// complete is the shared request path: cache, singleflight, bounded
// upstream call with retries. cached reports the completion did not reach
// a paid upstream model. Every request is one fm.call span (when a tracer is
// installed) and one fm_request_seconds observation.
func (g *Gateway) complete(ctx context.Context, prompt string) (text string, cached bool, err error) {
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "fm.call")
	outcome := "upstream"
	if g.replay {
		outcome = "replay"
	}
	tier := ""
	g.ins.requests.Inc()
	defer func() {
		if err != nil {
			g.ins.errors.Inc()
			outcome = "error"
		}
		g.ins.latency.ObserveDuration(time.Since(start))
		span.SetAttr("outcome", outcome)
		if tier != "" {
			span.SetAttr("cache_tier", tier)
		}
		span.End()
	}()
	if err = ctx.Err(); err != nil {
		return "", false, err
	}
	key := g.Key(prompt)
	shareable := g.opts.Cacheable(prompt)

	if shareable && g.cache != nil {
		if text, ok := g.cache.get(key); ok {
			g.ins.cacheHits.Inc()
			g.ins.fmcacheHitsMem.Inc()
			outcome = "cache"
			tier = "mem"
			return text, true, nil
		}
	}

	// Disk tier: a peer (or an earlier incarnation of this worker) already
	// paid for this completion — serve it at $0 with replay semantics. Both
	// cacheable and sampling prompts are eligible: a run fully covered by
	// the shard directory must consume the exact recorded outcome sequence
	// (including recorded upstream errors) to stay byte-identical with the
	// run that paid, because the simulators' draw sequence is shared state.
	if g.opts.Disk != nil {
		if dtext, derr, ok := g.opts.Disk.Get(key, shareable); ok {
			g.ins.fmcacheHitsDisk.Inc()
			outcome = "cache"
			tier = "disk"
			if g.opts.Store != nil && ctx.Err() == nil {
				// Record-through: the cell shard this run is recording must
				// stay a complete, self-contained replay of its own traffic
				// even when the outcome came from a peer's shard.
				if serr := g.opts.Store.record(key, prompt, dtext, derr); serr != nil {
					return "", false, fmt.Errorf("fmgate: recording disk-tier hit: %w", serr)
				}
			}
			if derr != "" {
				return "", true, fmt.Errorf("fmgate: cached upstream error: %s", derr)
			}
			if shareable && g.cache != nil {
				g.cache.put(key, dtext) // tier promotion: next hit is lock-cheap
			}
			return dtext, true, nil
		}
	}
	if g.opts.Disk != nil || (shareable && g.cache != nil) {
		g.ins.fmcacheMisses.Inc()
	}

	if !shareable {
		text, err = g.callUpstream(ctx, key, prompt)
		return text, g.replay, err
	}

	// Singleflight: the first goroutine in becomes the leader; identical
	// concurrent prompts wait for its result (or their own cancellation).
	g.mu.Lock()
	if c, ok := g.flight[key]; ok {
		g.mu.Unlock()
		g.ins.inflightShares.Inc()
		outcome = "shared"
		select {
		case <-c.done:
			return c.text, true, c.err
		case <-ctx.Done():
			return "", false, ctx.Err()
		}
	}
	c := &call{done: make(chan struct{})}
	g.flight[key] = c
	g.mu.Unlock()

	c.text, c.err = g.callUpstream(ctx, key, prompt)
	if c.err == nil && g.cache != nil && !g.promoteOnly {
		g.cache.put(key, c.text)
	}
	g.mu.Lock()
	delete(g.flight, key)
	g.mu.Unlock()
	close(c.done)
	return c.text, g.replay, c.err
}

// callUpstream performs the bounded, fault-injected, retried model call and
// records successful completions to the store.
func (g *Gateway) callUpstream(ctx context.Context, key, prompt string) (string, error) {
	select {
	case g.sem <- struct{}{}:
		defer func() { <-g.sem }()
	case <-ctx.Done():
		return "", ctx.Err()
	}
	backoff := g.opts.RetryBackoff
	var text string
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			g.ins.retries.Inc()
			delay := backoff
			if hint, ok := RetryAfterHint(err); ok {
				// A rate-limited upstream told us when to come back: honor
				// the hint instead of blind exponential doubling (and keep
				// the doubling schedule untouched for later plain retries).
				delay = hint
			} else {
				backoff *= 2
			}
			if dl, ok := ctx.Deadline(); ok {
				// Deadline budget cap: sleeping into a deadline we cannot
				// make wastes the budget and would mask the real failure
				// behind a context error — surface the upstream error with
				// the budget arithmetic instead.
				if remain := time.Until(dl); remain <= delay {
					return "", fmt.Errorf("fmgate: abandoning retries, %s of deadline budget left but next retry due in %s: %w",
						remain.Round(time.Millisecond), delay, err)
				}
			}
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return "", ctx.Err()
			case <-t.C:
			}
		}
		if g.replay {
			g.ins.replayed.Inc()
		} else {
			g.ins.upstreamCalls.Inc()
		}
		text, err = g.model.Complete(ctx, prompt)
		if err == nil || attempt >= g.opts.MaxRetries || !IsTransient(err) || ctx.Err() != nil {
			break
		}
	}
	if err != nil {
		// Record upstream failures too (but never the caller's own
		// cancellation, which says nothing about the model): the simulators
		// legitimately error on structurally-impossible prompts, and replay
		// must reproduce those outcomes in sequence rather than miss.
		if g.opts.Store != nil && ctx.Err() == nil {
			if serr := g.opts.Store.record(key, prompt, "", err.Error()); serr != nil {
				return "", fmt.Errorf("fmgate: recording upstream error: %w", serr)
			}
		}
		if g.opts.Disk != nil && ctx.Err() == nil {
			g.opts.Disk.Learn(key, prompt, "", err.Error(), g.opts.Store != nil)
		}
		return "", err
	}
	if g.opts.Store != nil {
		if serr := g.opts.Store.record(key, prompt, text, ""); serr != nil {
			return "", fmt.Errorf("fmgate: recording completion: %w", serr)
		}
	}
	if g.opts.Disk != nil {
		// Demotion path of the tiering story: a completion this process just
		// paid for becomes visible to peer processes — via the cell shard it
		// was recorded into, or (unpersisted runs) via the cache's own live
		// shard appended inside Learn.
		g.opts.Disk.Learn(key, prompt, text, "", g.opts.Store != nil)
	}
	return text, nil
}

// PoolDegraded reports the first fully-circuit-open failure of this
// gateway's backend pool, nil when healthy (or when the upstream model is
// not a Pool).
func (g *Gateway) PoolDegraded() error {
	if p, ok := g.model.(*Pool); ok {
		return p.Degraded()
	}
	return nil
}

// PoolMetrics returns the backend-pool counters when this gateway's
// upstream model is a Pool (ok=false otherwise).
func (g *Gateway) PoolMetrics() (PoolMetrics, bool) {
	if p, ok := g.model.(*Pool); ok {
		return p.Metrics(), true
	}
	return PoolMetrics{}, false
}

// Metrics returns a snapshot of the traffic counters — a rendering of this
// gateway's registry-backed instruments.
func (g *Gateway) Metrics() Metrics {
	return Metrics{
		Requests:       g.ins.requests.Value(),
		UpstreamCalls:  g.ins.upstreamCalls.Value(),
		CacheHits:      g.ins.cacheHits.Value(),
		DiskHits:       g.ins.fmcacheHitsDisk.Value(),
		InflightShares: g.ins.inflightShares.Value(),
		Replayed:       g.ins.replayed.Value(),
		Retries:        g.ins.retries.Value(),
		Errors:         g.ins.errors.Value(),
	}
}

// firstLine abbreviates a prompt for error messages.
func firstLine(prompt string) string {
	for i := 0; i < len(prompt); i++ {
		if prompt[i] == '\n' {
			return prompt[:i]
		}
	}
	if len(prompt) > 80 {
		return prompt[:80]
	}
	return prompt
}

// errTransient marks injected/upstream errors as retryable, optionally
// carrying a Retry-After-style back-off hint.
type errTransient struct {
	err   error
	after time.Duration
}

func (e errTransient) Error() string { return e.err.Error() }
func (e errTransient) Unwrap() error { return e.err }

// Transient wraps an error so the gateway's retry loop will retry it.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return errTransient{err: err}
}

// RateLimited wraps an error as transient with a Retry-After hint: the retry
// loop backs off by the server-suggested amount instead of its exponential
// schedule.
func RateLimited(err error, retryAfter time.Duration) error {
	if err == nil {
		return nil
	}
	return errTransient{err: err, after: retryAfter}
}

// RateLimitedHeader wraps an error as transient with the back-off hint
// parsed from a Retry-After header value (the wire format the serving
// daemon emits and internal/retryafter defines). An absent or unparseable
// header degrades to a plain Transient error: still retryable, just on the
// gateway's own exponential schedule instead of the server's suggestion.
// HTTP transports (smartfeatd clients, the future live FM edge) should map
// 429 responses through this one helper so the wire format cannot drift
// from the emission side.
func RateLimitedHeader(err error, header string) error {
	if after, ok := retryafter.Parse(header); ok {
		return RateLimited(err, after)
	}
	return Transient(err)
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var t errTransient
	return errors.As(err, &t)
}

// RetryAfterHint extracts a rate-limit back-off hint from err.
func RetryAfterHint(err error) (time.Duration, bool) {
	var t errTransient
	if errors.As(err, &t) && t.after > 0 {
		return t.after, true
	}
	return 0, false
}

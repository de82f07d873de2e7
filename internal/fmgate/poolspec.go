package fmgate

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"smartfeat/internal/fm"
)

// FaultSpec is the CLI-facing description of a per-backend fault model,
// parsed from a "k=v,k=v" string.
type FaultSpec struct {
	Rate       float64       // transient error probability
	RateLimit  float64       // rate-limit error probability
	Hang       float64       // hang probability
	Malformed  float64       // malformed-output probability
	Jitter     time.Duration // max uniform latency jitter
	RetryAfter time.Duration // hint attached to rate-limit errors
	Outage     string        // "NAME:FROM-TO" scripted outage on one backend
}

// Empty reports whether the spec injects nothing.
func (s FaultSpec) Empty() bool {
	return s.Rate == 0 && s.RateLimit == 0 && s.Hang == 0 && s.Malformed == 0 &&
		s.Jitter == 0 && s.Outage == ""
}

// ParseFaultSpec parses a fault model from a flag value like
// "rate=0.1,ratelimit=0.03,jitter=4ms,outage=b2:5-25".
func ParseFaultSpec(s string) (FaultSpec, error) {
	var out FaultSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return out, fmt.Errorf("fmgate: fault spec %q: want k=v", part)
		}
		var err error
		switch k {
		case "rate":
			out.Rate, err = parseProb(v)
		case "ratelimit":
			out.RateLimit, err = parseProb(v)
		case "hang":
			out.Hang, err = parseProb(v)
		case "malformed":
			out.Malformed, err = parseProb(v)
		case "jitter":
			out.Jitter, err = parseDelay(v)
		case "retryafter":
			out.RetryAfter, err = parseDelay(v)
		case "outage":
			if _, _, _, oerr := parseOutage(v); oerr != nil {
				return out, oerr
			}
			out.Outage = v
		default:
			return out, fmt.Errorf("fmgate: fault spec: unknown key %q (want rate, ratelimit, hang, malformed, jitter, retryafter, outage)", k)
		}
		if err != nil {
			return out, fmt.Errorf("fmgate: fault spec %s: %w", k, err)
		}
	}
	return out, nil
}

// parseProb parses a fault probability, rejecting values outside [0,1]
// (NaN included).
func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err == nil && !(p >= 0 && p <= 1) {
		err = fmt.Errorf("%q is not a probability in [0,1]", v)
	}
	return p, err
}

// parseDelay parses a non-negative fault duration.
func parseDelay(v string) (time.Duration, error) {
	d, err := time.ParseDuration(v)
	if err == nil && d < 0 {
		err = fmt.Errorf("%q is negative", v)
	}
	return d, err
}

// parseOutage splits "NAME:FROM-TO" into its backend name and call window.
func parseOutage(s string) (name string, from, to int64, err error) {
	name, window, ok := strings.Cut(s, ":")
	if !ok {
		return "", 0, 0, fmt.Errorf("fmgate: outage %q: want NAME:FROM-TO", s)
	}
	lo, hi, ok := strings.Cut(window, "-")
	if !ok {
		return "", 0, 0, fmt.Errorf("fmgate: outage %q: want NAME:FROM-TO", s)
	}
	from, err = strconv.ParseInt(lo, 10, 64)
	if err == nil {
		to, err = strconv.ParseInt(hi, 10, 64)
	}
	if err != nil || to <= from {
		return "", 0, 0, fmt.Errorf("fmgate: outage %q: want NAME:FROM-TO with FROM < TO", s)
	}
	return name, from, to, nil
}

// ParseBreaker parses a breaker flag value: "THRESHOLD" or
// "THRESHOLD:COOLDOWN" (e.g. "3" or "3:50ms").
func ParseBreaker(s string) (BreakerConfig, error) {
	th, cd, hasCd := strings.Cut(s, ":")
	n, err := strconv.Atoi(th)
	if err != nil || n <= 0 {
		return BreakerConfig{}, fmt.Errorf("fmgate: breaker %q: want THRESHOLD[:COOLDOWN]", s)
	}
	cfg := BreakerConfig{Threshold: n}
	if hasCd {
		d, err := time.ParseDuration(cd)
		if err != nil || d <= 0 {
			return BreakerConfig{}, fmt.Errorf("fmgate: breaker %q: want THRESHOLD[:COOLDOWN]", s)
		}
		cfg.Cooldown = d
	}
	return cfg, nil
}

// PoolSpec is the CLI-facing description of a resilient backend pool,
// carried on experiment configs. It is transport-only — a pool never changes
// *what* a model answers, only how calls get there — so it is deliberately
// excluded from config fingerprints: a chaos replay of a recorded grid run
// still matches the recording's config hash.
type PoolSpec struct {
	// Backends is the number of replica backends (0 disables pooling).
	Backends int
	// Hedge fires a duplicate request on a second backend after this delay.
	Hedge time.Duration
	// Deadline is the per-call time budget.
	Deadline time.Duration
	// Breaker tunes every backend's circuit breaker.
	Breaker BreakerConfig
	// Retries is the gateway retry budget riding along with the pool
	// (transport faults surface as transient errors; a pool without retries
	// would fail cells on the first injected fault).
	Retries int
	// Faults is the per-backend injected fault model.
	Faults FaultSpec
	// Seed offsets each backend's fault sequence.
	Seed int64
}

// Build constructs the Pool over a shared content model.
func (spec PoolSpec) Build(content fm.Model) (*Pool, error) {
	outIdx, outFrom, outTo, err := spec.outage()
	if err != nil {
		return nil, err
	}
	n := max(spec.Backends, 1)
	backends := make([]Backend, 0, n)
	for i := 1; i <= n; i++ {
		b := Backend{Name: fmt.Sprintf("b%d", i), Breaker: spec.Breaker}
		if !spec.Faults.Empty() {
			fi := &FaultInjector{
				ErrorRate:     spec.Faults.Rate,
				RateLimitRate: spec.Faults.RateLimit,
				HangRate:      spec.Faults.Hang,
				MalformedRate: spec.Faults.Malformed,
				MaxJitter:     spec.Faults.Jitter,
				RetryAfter:    spec.Faults.RetryAfter,
				Seed:          spec.Seed + int64(i),
			}
			if i == outIdx {
				fi.Outages = []OutageWindow{{From: outFrom, To: outTo}}
			}
			b.Faults = fi
		}
		backends = append(backends, b)
	}
	return NewPool(content, backends, PoolOptions{HedgeAfter: spec.Hedge, Deadline: spec.Deadline})
}

// outage resolves the fault spec's scripted outage to the 1-based index of
// the backend it takes down (0 when there is none) and its call window. An
// outage naming no backend of the pool is an error, not a silent no-op.
func (spec PoolSpec) outage() (idx int, from, to int64, err error) {
	if spec.Faults.Outage == "" {
		return 0, 0, 0, nil
	}
	name, from, to, err := parseOutage(spec.Faults.Outage)
	if err != nil {
		return 0, 0, 0, err
	}
	n := max(spec.Backends, 1)
	for i := 1; i <= n; i++ {
		if fmt.Sprintf("b%d", i) == name {
			return i, from, to, nil
		}
	}
	return 0, 0, 0, fmt.Errorf("fmgate: outage %q names no backend of the pool (want b1..b%d)", spec.Faults.Outage, n)
}

// PoolGateway builds a gateway whose upstream is a pool of spec.Backends
// replica transports over model. A nil spec (or Backends <= 0) falls back to
// a plain gateway.
//
// With a replay Store the recording is the pool's content source, exactly as
// it is a plain gateway's model: completions stay byte-identical to the
// recorded run while the transport layer — faults, outages, hedges,
// breakers — is fully exercised. That is how the chaos end-to-end check
// (internal/e2e) proves resilience hermetically.
func PoolGateway(model fm.Model, opts Options, spec *PoolSpec) (*Gateway, error) {
	if spec == nil || spec.Backends <= 0 {
		return New(model, opts), nil
	}
	content, replay := replayModel(model, &opts)
	pool, err := spec.Build(content)
	if err != nil {
		return nil, err
	}
	if opts.MaxRetries == 0 {
		if spec.Retries > 0 {
			opts.MaxRetries = spec.Retries
		} else if !spec.Faults.Empty() {
			opts.MaxRetries = 4
		}
	}
	return newGateway(pool, opts, replay), nil
}

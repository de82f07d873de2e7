// Package obs is the process-wide telemetry substrate: a race-clean metrics
// registry (counters, gauges, fixed-bucket histograms with labeled series),
// a lightweight span tracer with context nesting, and run-level profiles.
//
// The registry uses a *contributor* model: components own their instruments
// as plain struct fields (so per-instance snapshots like fmgate's
// Gateway.Metrics keep working at zero coordination cost) and register them
// into a Registry under a metric name + label set. Several instruments may
// register under the same series — e.g. one fmgate.Gateway per grid cell,
// all labeled role="generator" — and the registry sums them at scrape time.
// Instruments are never unregistered, so the registry grows with every
// component that registers: in smartfeatd each served cell builds fresh
// gateways and pools, so contributors (one pointer each, and their
// instruments) accumulate linearly with jobs served for the life of the
// daemon. Bounding that is ROADMAP's "Bounded telemetry state" item.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing instrument. The zero value is ready
// to use, so it embeds directly in component structs.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instrument that can go up and down. The zero value is ready.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed upper-bound buckets (plus an
// implicit +Inf overflow bucket). Observe is lock-free; quantiles are
// estimated by linear interpolation inside the bucket containing the rank,
// the same estimate Prometheus' histogram_quantile computes server-side.
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Int64
	over   atomic.Int64 // +Inf bucket
	total  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// TimeBuckets is the default latency bucket layout (seconds): exponential
// from 1ms to ~65s, wide enough for instant replay hits and slow live calls.
var TimeBuckets = []float64{
	0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128, 0.256,
	0.512, 1.024, 2.048, 4.096, 8.192, 16.384, 32.768, 65.536,
}

// NewHistogram builds a histogram over the given strictly increasing upper
// bounds. It panics on unsorted bounds (programmer error).
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.over.Add(1)
	}
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns per-bucket (non-cumulative) counts including +Inf last.
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.counts)+1)
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	out[len(h.counts)] = h.over.Load()
	return out
}

// Quantile estimates the q-quantile (0..1) of the observed distribution.
// Returns NaN on an empty histogram; observations above the last bound
// saturate to it (there is no upper edge to interpolate toward).
func (h *Histogram) Quantile(q float64) float64 {
	return bucketQuantile(h.bounds, h.snapshot(), q)
}

// bucketQuantile is the shared estimator: buckets are per-bucket counts with
// the +Inf overflow last. Rank q*total is located in its bucket and linearly
// interpolated between the bucket's lower and upper bound (lower bound 0 for
// the first bucket, mirroring Prometheus' histogram_quantile).
func bucketQuantile(bounds []float64, buckets []int64, q float64) float64 {
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range buckets {
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i >= len(bounds) { // overflow bucket: saturate
				if len(bounds) == 0 {
					return math.NaN()
				}
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			within := rank - float64(cum-c)
			if within < 0 {
				within = 0
			}
			return lo + (hi-lo)*within/float64(c)
		}
	}
	if len(bounds) == 0 {
		return math.NaN()
	}
	return bounds[len(bounds)-1]
}

// Kind discriminates instrument families.
type Kind string

// Family kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// series is one labeled time series: the sum, at scrape time, of every
// contributor instrument registered under the same (name, label values).
type series struct {
	labelValues []string
	counters    []*Counter
	gauges      []*Gauge
	hists       []*Histogram
}

type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	mu         sync.Mutex
	series     map[string]*series // keyed by joined label values
}

// Registry aggregates contributor instruments into labeled series and
// renders them as Prometheus text exposition or a JSON snapshot. All methods
// are safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// Default is the process-wide registry every component registers into.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// labelPairs splits a variadic k1,v1,k2,v2 list. Panics on odd length
// (programmer error at a registration site).
func labelPairs(kv []string) (names, values []string) {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", kv))
	}
	for i := 0; i < len(kv); i += 2 {
		names = append(names, kv[i])
		values = append(values, kv[i+1])
	}
	return names, values
}

func (r *Registry) family(name, help string, kind Kind, labelNames []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{
			name:       name,
			help:       help,
			kind:       kind,
			labelNames: labelNames,
			series:     make(map[string]*series),
		}
		r.fams[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.kind, kind))
	}
	if strings.Join(f.labelNames, ",") != strings.Join(labelNames, ",") {
		panic(fmt.Sprintf("obs: metric %s label names %v vs %v", name, f.labelNames, labelNames))
	}
	return f
}

func (f *family) seriesFor(values []string) *series {
	key := strings.Join(values, "\x1f")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: values}
		f.series[key] = s
	}
	return s
}

// RegisterCounter adds c as a contributor to the counter series name{labels}.
// labels is a flat k1,v1,... list; the same label names must be used for
// every series of a family.
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...string) {
	names, values := labelPairs(labels)
	f := r.family(name, help, KindCounter, names)
	s := f.seriesFor(values)
	f.mu.Lock()
	s.counters = append(s.counters, c)
	f.mu.Unlock()
}

// RegisterGauge adds g as a contributor to the gauge series name{labels}.
func (r *Registry) RegisterGauge(name, help string, g *Gauge, labels ...string) {
	names, values := labelPairs(labels)
	f := r.family(name, help, KindGauge, names)
	s := f.seriesFor(values)
	f.mu.Lock()
	s.gauges = append(s.gauges, g)
	f.mu.Unlock()
}

// RegisterHistogram adds h as a contributor to the histogram series
// name{labels}. Contributors to one family must share bucket bounds.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...string) {
	names, values := labelPairs(labels)
	f := r.family(name, help, KindHistogram, names)
	s := f.seriesFor(values)
	f.mu.Lock()
	s.hists = append(s.hists, h)
	f.mu.Unlock()
}

// SeriesPoint is one series' scrape-time state in a Snapshot.
type SeriesPoint struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`            // counter/gauge sum; histogram count
	Sum    float64           `json:"sum,omitempty"`    // histogram only
	P50    float64           `json:"p50,omitempty"`    // histogram only
	P90    float64           `json:"p90,omitempty"`    // histogram only
	P99    float64           `json:"p99,omitempty"`    // histogram only
	Bounds []float64         `json:"bounds,omitempty"` // histogram only
	Counts []int64           `json:"counts,omitempty"` // histogram only, +Inf last
}

// MetricSnapshot is one family's scrape-time state.
type MetricSnapshot struct {
	Name   string        `json:"name"`
	Kind   Kind          `json:"kind"`
	Help   string        `json:"help,omitempty"`
	Series []SeriesPoint `json:"series"`
}

// sumSeries collapses a series' contributors; for histograms it merges
// bucket counts (bounds must match — first contributor wins the layout).
func sumSeries(f *family, s *series) SeriesPoint {
	pt := SeriesPoint{}
	if len(f.labelNames) > 0 {
		pt.Labels = make(map[string]string, len(f.labelNames))
		for i, n := range f.labelNames {
			pt.Labels[n] = s.labelValues[i]
		}
	}
	switch f.kind {
	case KindCounter:
		var v int64
		for _, c := range s.counters {
			v += c.Value()
		}
		pt.Value = float64(v)
	case KindGauge:
		var v int64
		for _, g := range s.gauges {
			v += g.Value()
		}
		pt.Value = float64(v)
	case KindHistogram:
		for _, h := range s.hists {
			if pt.Bounds == nil {
				pt.Bounds = h.bounds
				pt.Counts = make([]int64, len(h.bounds)+1)
			}
			for i, c := range h.snapshot() {
				if i < len(pt.Counts) {
					pt.Counts[i] += c
				}
			}
			pt.Sum += h.Sum()
		}
		var total int64
		for _, c := range pt.Counts {
			total += c
		}
		pt.Value = float64(total)
		// An empty histogram's quantiles are NaN, which encoding/json
		// refuses to marshal — a single never-observed series would poison
		// the whole ?format=json scrape. Snapshots report 0 instead; the
		// Quantile API keeps returning NaN for callers that want to
		// distinguish "no data" from "fast".
		pt.P50 = finiteOrZero(bucketQuantile(pt.Bounds, pt.Counts, 0.50))
		pt.P90 = finiteOrZero(bucketQuantile(pt.Bounds, pt.Counts, 0.90))
		pt.P99 = finiteOrZero(bucketQuantile(pt.Bounds, pt.Counts, 0.99))
	}
	return pt
}

// finiteOrZero maps NaN/±Inf onto 0 for JSON-safe snapshot fields.
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Snapshot returns every family sorted by name, series sorted by label
// values — a stable, machine-readable view of the registry.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]MetricSnapshot, 0, len(fams))
	for _, f := range fams {
		// Contributor slices are appended to under f.mu by Register*, so
		// the whole family must be summed under it too.
		f.mu.Lock()
		sers := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			sers = append(sers, s)
		}
		sort.Slice(sers, func(i, j int) bool {
			return strings.Join(sers[i].labelValues, "\x1f") < strings.Join(sers[j].labelValues, "\x1f")
		})
		ms := MetricSnapshot{Name: f.name, Kind: f.kind, Help: f.help}
		for _, s := range sers {
			ms.Series = append(ms.Series, sumSeries(f, s))
		}
		f.mu.Unlock()
		out = append(out, ms)
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

func promLabels(labels map[string]string, extra ...string) string {
	names := make([]string, 0, len(labels))
	for n := range labels {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, labels[n])
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extra[i], extra[i+1])
	}
	if b.Len() == 0 {
		return ""
	}
	return "{" + b.String() + "}"
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders the registry in Prometheus text exposition format
// (v0.0.4): families sorted by name, series by label values, histograms as
// cumulative _bucket{le=...} plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, ms := range r.Snapshot() {
		if ms.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", ms.Name, ms.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", ms.Name, ms.Kind); err != nil {
			return err
		}
		for _, pt := range ms.Series {
			switch ms.Kind {
			case KindHistogram:
				var cum int64
				for i, c := range pt.Counts {
					cum += c
					le := "+Inf"
					if i < len(pt.Bounds) {
						le = formatFloat(pt.Bounds[i])
					}
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", ms.Name, promLabels(pt.Labels, "le", le), cum); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", ms.Name, promLabels(pt.Labels), formatFloat(pt.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", ms.Name, promLabels(pt.Labels), cum); err != nil {
					return err
				}
			default:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", ms.Name, promLabels(pt.Labels), formatFloat(pt.Value)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Total sums a family's series values (counter/gauge sums, histogram counts)
// across all series, or only those whose labels include every k,v pair in
// the optional filter list. Missing families total zero.
func (r *Registry) Total(name string, filter ...string) float64 {
	fNames, fValues := labelPairs(filter)
	var total float64
	for _, ms := range r.Snapshot() {
		if ms.Name != name {
			continue
		}
	series:
		for _, pt := range ms.Series {
			for i, fn := range fNames {
				if pt.Labels[fn] != fValues[i] {
					continue series
				}
			}
			total += pt.Value
		}
	}
	return total
}

// Quantile estimates the q-quantile of a histogram family with all its
// series' buckets merged. NaN when the family is missing or empty.
func (r *Registry) Quantile(name string, q float64) float64 {
	for _, ms := range r.Snapshot() {
		if ms.Name != name || ms.Kind != KindHistogram {
			continue
		}
		var bounds []float64
		var counts []int64
		for _, pt := range ms.Series {
			if bounds == nil {
				bounds = pt.Bounds
				counts = make([]int64, len(pt.Counts))
			}
			for i, c := range pt.Counts {
				if i < len(counts) {
					counts[i] += c
				}
			}
		}
		return bucketQuantile(bounds, counts, q)
	}
	return math.NaN()
}

package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramPercentiles pins the quantile estimator on a known
// distribution: one observation per unit-width bucket (0.5, 1.5, ... 9.5
// into bounds 1..10), where linear interpolation has closed-form answers.
func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) + 0.5)
	}
	cases := []struct{ q, want float64 }{
		{0.50, 5},   // rank 5 lands at the top of bucket (4,5]
		{0.90, 9},   // rank 9 at the top of (8,9]
		{0.99, 9.9}, // rank 9.9 is 0.9 into (9,10]
		{0.10, 1},
		{1.00, 10},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := h.Count(); got != 10 {
		t.Errorf("Count = %d, want 10", got)
	}
	if got, want := h.Sum(), 50.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

// TestHistogramEdgeCases covers the empty series, a single sample, and
// overflow beyond the last bound.
func TestHistogramEdgeCases(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram Quantile = %v, want NaN", got)
	}

	h.Observe(1.5) // single sample in bucket (1,2]
	// rank 0.5 of 1 sample is half-way into the bucket: 1 + 0.5*(2-1).
	if got := h.Quantile(0.5); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("single-sample p50 = %v, want 1.5", got)
	}
	if got := h.Quantile(0); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("single-sample p0 = %v, want 1 (bucket lower bound)", got)
	}

	over := NewHistogram(1, 2, 4)
	over.Observe(99) // overflow saturates to the last finite bound
	if got := over.Quantile(0.99); math.Abs(got-4) > 1e-9 {
		t.Errorf("overflow p99 = %v, want 4 (last bound)", got)
	}
}

// TestHistogramBucketBoundaries pins the "le" semantics: a value equal to a
// bound lands in that bound's bucket (upper bounds are inclusive, as in
// Prometheus).
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	h.Observe(1) // le="1"
	h.Observe(2) // le="2"
	h.Observe(3) // le="4"
	h.Observe(5) // +Inf
	got := h.snapshot()
	want := []int64{1, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket counts = %v, want %v", got, want)
		}
	}
}

// TestRegistryContributorsSum checks that several instruments registered
// under the same labeled series sum at scrape time — the pattern per-cell
// gateways rely on — and that distinct label values stay distinct.
func TestRegistryContributorsSum(t *testing.T) {
	r := NewRegistry()
	var a, b, c Counter
	r.RegisterCounter("fm_requests_total", "requests", &a, "role", "generator")
	r.RegisterCounter("fm_requests_total", "requests", &b, "role", "generator")
	r.RegisterCounter("fm_requests_total", "requests", &c, "role", "selector")
	a.v.Add(3)
	b.v.Add(4)
	c.Inc()
	if got := r.Total("fm_requests_total"); got != 8 {
		t.Errorf("Total = %v, want 8", got)
	}
	if got := r.Total("fm_requests_total", "role", "generator"); got != 7 {
		t.Errorf("Total(generator) = %v, want 7", got)
	}
	if got := r.Total("fm_requests_total", "role", "selector"); got != 1 {
		t.Errorf("Total(selector) = %v, want 1", got)
	}
}

// TestWritePrometheus pins the exposition format and its stable ordering.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	var reqs Counter
	var load Gauge
	r.RegisterCounter("zz_total", "last family", &reqs, "role", "b")
	var reqs2 Counter
	r.RegisterCounter("zz_total", "last family", &reqs2, "role", "a")
	r.RegisterGauge("aa_inflight", "first family", &load)
	h := NewHistogram(1, 2)
	r.RegisterHistogram("mm_seconds", "latency", h)
	reqs.v.Add(5)
	reqs2.v.Add(2)
	load.Set(3)
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_inflight first family
# TYPE aa_inflight gauge
aa_inflight 3
# HELP mm_seconds latency
# TYPE mm_seconds histogram
mm_seconds_bucket{le="1"} 1
mm_seconds_bucket{le="2"} 2
mm_seconds_bucket{le="+Inf"} 3
mm_seconds_sum 11
mm_seconds_count 3
# HELP zz_total last family
# TYPE zz_total counter
zz_total{role="a"} 2
zz_total{role="b"} 5
`
	if sb.String() != want {
		t.Errorf("prometheus output:\n%s\nwant:\n%s", sb.String(), want)
	}
	// A second render must be byte-identical (stable ordering).
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Error("consecutive renders differ")
	}
}

// TestWriteJSONSnapshot smoke-tests the JSON view including histogram
// percentile fields.
func TestWriteJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram(1, 2, 4)
	r.RegisterHistogram("lat_seconds", "latency", h)
	h.Observe(0.5)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"lat_seconds"`, `"histogram"`, `"p50"`, `"counts"`} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("JSON snapshot missing %s:\n%s", frag, sb.String())
		}
	}
}

// TestRegistryConcurrent hammers registration and observation from many
// goroutines under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c Counter
			r.RegisterCounter("c_total", "c", &c, "w", "x")
			h := NewHistogram(TimeBuckets...)
			r.RegisterHistogram("h_seconds", "h", h, "w", "x")
			for j := 0; j < 100; j++ {
				c.Inc()
				h.Observe(float64(j) / 100)
				_ = r.Total("c_total")
			}
		}()
	}
	wg.Wait()
	if got := r.Total("c_total"); got != 800 {
		t.Errorf("Total = %v, want 800", got)
	}
	if got := r.Total("h_seconds"); got != 800 {
		t.Errorf("histogram count total = %v, want 800", got)
	}
}

// TestQuantileMergesSeries checks Registry.Quantile pools every series of a
// family before estimating.
func TestQuantileMergesSeries(t *testing.T) {
	r := NewRegistry()
	h1 := NewHistogram(1, 2, 3, 4)
	h2 := NewHistogram(1, 2, 3, 4)
	r.RegisterHistogram("q_seconds", "q", h1, "role", "a")
	r.RegisterHistogram("q_seconds", "q", h2, "role", "b")
	h1.Observe(0.5)
	h1.Observe(0.5)
	h2.Observe(3.5)
	h2.Observe(3.5)
	// 4 samples, two per extreme bucket; rank 2 tops out bucket (0,1].
	if got := r.Quantile("q_seconds", 0.5); math.Abs(got-1) > 1e-9 {
		t.Errorf("merged p50 = %v, want 1", got)
	}
	if got := r.Quantile("missing", 0.5); !math.IsNaN(got) {
		t.Errorf("missing family quantile = %v, want NaN", got)
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"smartfeat/internal/fm"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n       int
		wantPct int
		wantV   float64
		wantOK  bool
	}{
		{n: 10, wantOK: false}, // no percentile leaves ten samples above it
		{n: 11, wantPct: 9, wantV: 1, wantOK: true},
		{n: 20, wantPct: 50, wantV: 10, wantOK: true},
		{n: 40, wantPct: 75, wantV: 30, wantOK: true},
		{n: 1000, wantPct: 99, wantV: 990, wantOK: true},
	}
	for _, c := range cases {
		pct, v, ok := tailPercentile(seq(c.n))
		if ok != c.wantOK || (ok && (pct != c.wantPct || v != c.wantV)) {
			t.Errorf("n=%d: got p%d=%v ok=%v, want p%d=%v ok=%v", c.n, pct, v, ok, c.wantPct, c.wantV, c.wantOK)
		}
	}
	// Ties: samples equal to the percentile's value are not beyond it.
	flat := make([]float64, 50)
	if _, _, ok := tailPercentile(flat); ok {
		t.Error("50 equal samples: a tail percentile qualified, want none")
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if got := percentile(seq(10), 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
}

func TestUnionLength(t *testing.T) {
	iv := []interval{{0, 2}, {1, 3}, {5, 6}, {5.5, 5.8}, {7, 7}}
	if got := unionLength(iv); math.Abs(got-4) > 1e-12 {
		t.Errorf("union = %v, want 4", got)
	}
}

// TestFoldSpans checks that self time subtracts the union of a span's
// children, clipped to the span, not their sum.
func TestFoldSpans(t *testing.T) {
	spans := []span{
		{id: 1, name: "root", start: 0, dur: 10},
		{id: 2, parent: 1, name: "iter", start: 1, dur: 3}, // [1,4]
		{id: 3, parent: 1, name: "iter", start: 3, dur: 3}, // [3,6], overlaps
		{id: 4, parent: 2, name: "fit", start: 2, dur: 1},  // [2,3]
		{id: 5, parent: 1, name: "late", start: 9, dur: 4}, // [9,13], clipped to 10
	}
	f := foldSpans(spans)
	want := map[string]float64{"root": 10 - 5 - 1, "iter": 2 + 3, "fit": 1, "late": 4}
	for name, w := range want {
		if math.Abs(f.self[name]-w) > 1e-12 {
			t.Errorf("self[%s] = %v, want %v", name, f.self[name], w)
		}
	}
	if f.total["iter"] != 6 || f.count["iter"] != 2 {
		t.Errorf("iter total/count = %v/%d, want 6/2", f.total["iter"], f.count["iter"])
	}
}

func TestAttributeCore(t *testing.T) {
	calls := []fmCall{
		{interval: interval{4, 6}, task: fm.TaskGenerateFunction},
		{interval: interval{2, 3}, task: fm.TaskProposeUnary},
	}
	self, prep, post := attributeCore(1, 8, calls)
	if self != 4 || prep["unary"] != 1 || prep["function"] != 1 || post != 2 {
		t.Errorf("self=%v prep=%v post=%v, want 4, unary 1, function 1, 2", self, prep, post)
	}
}

func TestMetricNameAlphabet(t *testing.T) {
	for _, ok := range []string{"setup_s", "core.prep_unary_s", "a-b.c_9", "9lives"} {
		if err := checkMetricName(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	if err := checkMetricName(strings.Repeat("a", 64)); err != nil {
		t.Errorf("64-letter name rejected: %v", err)
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if checkMetricName(bad) == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if err := checkMetricName(m.name); err != nil {
			t.Error(err)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
	}
}

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONAgrees checks that BENCHMARK.json declares exactly the
// workloads and metrics the command prints.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), command %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: BENCHMARK.json %s [%s], command %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: BENCHMARK.json %s [%s], command %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}

	// The printed end-to-end set is exactly the declared one.
	got := aggregateEndToEnd([]pass{{res: &childResult{SetupS: 1, WallS: 2, Items: 3}, rssMB: 4}}, 0.5)
	if len(got) != len(endToEnd) {
		t.Errorf("aggregateEndToEnd prints %d metrics, want %d", len(got), len(endToEnd))
	}
	for _, m := range endToEnd {
		v, ok := got[m.name]
		if !ok || v.Unit != m.unit {
			t.Errorf("aggregateEndToEnd: %s missing or unit %q", m.name, v.Unit)
		}
	}
	if got["setup_s"].Value != 1.5 || got["items_per_s"].Value != 1.5 {
		t.Errorf("setup_s=%v items_per_s=%v, want 1.5 and 1.5", got["setup_s"].Value, got["items_per_s"].Value)
	}
}

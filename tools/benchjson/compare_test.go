package main

import (
	"bytes"
	"strings"
	"testing"
)

const compareOld = `pkg: smartfeat/internal/fmgate
BenchmarkPool-2 100 100 ns/op 64 B/op 4 allocs/op
BenchmarkPool-2 100 110 ns/op 64 B/op 4 allocs/op
BenchmarkPool-2 100 90 ns/op 64 B/op 4 allocs/op
BenchmarkPool-2 100 105 ns/op 64 B/op 4 allocs/op
BenchmarkPool-2 100 95 ns/op 64 B/op 4 allocs/op
BenchmarkFlat 10 50 ns/op
BenchmarkFlat 10 50 ns/op
BenchmarkOnlyOld 10 7 ns/op
`

const compareNew = `pkg: smartfeat/internal/fmgate
BenchmarkPool-2 100 50 ns/op 32 B/op 2 allocs/op
BenchmarkPool-2 100 55 ns/op 32 B/op 2 allocs/op
BenchmarkPool-2 100 45 ns/op 32 B/op 2 allocs/op
BenchmarkPool-2 100 52 ns/op 32 B/op 2 allocs/op
BenchmarkPool-2 100 48 ns/op 32 B/op 2 allocs/op
BenchmarkFlat 10 50 ns/op
BenchmarkFlat 10 50 ns/op
BenchmarkOnlyNew 10 7 ns/op
`

// TestCompareSweeps pins the comparison of two fixed sweeps: the median
// ratio, a seeded interval around it, and benchmarks in one sweep only
// left out.
func TestCompareSweeps(t *testing.T) {
	old, err := parse(strings.NewReader(compareOld))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parse(strings.NewReader(compareNew))
	if err != nil {
		t.Fatal(err)
	}
	cs := compareSweeps(old, cur)
	if len(cs) != 2 {
		t.Fatalf("want the two benchmarks in both sweeps, got %+v", cs)
	}
	flat, pool := cs[0], cs[1]
	if flat.Key != "smartfeat/internal/fmgate.BenchmarkFlat" || flat.Ratio != 1 || flat.Lo != 1 || flat.Hi != 1 || flat.verdict() != "~" {
		t.Errorf("identical runs: %+v, want ratio and interval 1", flat)
	}
	if flat.OldAllocs != -1 || flat.NewAllocs != -1 {
		t.Errorf("no -benchmem: allocs %v → %v, want -1", flat.OldAllocs, flat.NewAllocs)
	}
	if pool.Key != "smartfeat/internal/fmgate.BenchmarkPool-2" || pool.OldRuns != 5 || pool.NewRuns != 5 {
		t.Fatalf("pool: %+v", pool)
	}
	if pool.OldMedian != 100 || pool.NewMedian != 50 || pool.Ratio != 0.5 {
		t.Errorf("pool medians %v → %v, ratio %v, want 100 → 50, 0.5", pool.OldMedian, pool.NewMedian, pool.Ratio)
	}
	// Every resampled ratio lies between the extreme runs' ratios.
	if !(45.0/110 <= pool.Lo && pool.Lo < 0.5 && 0.5 < pool.Hi && pool.Hi <= 55.0/90) || pool.verdict() != "faster" {
		t.Errorf("pool interval [%v, %v] (%s), want around 0.5 and below 1", pool.Lo, pool.Hi, pool.verdict())
	}
	if pool.OldAllocs != 4 || pool.NewAllocs != 2 {
		t.Errorf("pool allocs %v → %v, want 4 → 2", pool.OldAllocs, pool.NewAllocs)
	}
	if back := compareSweeps(cur, old)[1]; back.Ratio != 2 || back.Lo <= 1 || back.verdict() != "slower" {
		t.Errorf("reversed: %+v, want ratio 2 called slower", back)
	}
}

// TestCompareSeeded checks that one pair of sweeps prints one table, and
// that sweeps with no benchmark in common are an error.
func TestCompareSeeded(t *testing.T) {
	var a, b bytes.Buffer
	for _, out := range []*bytes.Buffer{&a, &b} {
		if err := compare(strings.NewReader(compareOld), strings.NewReader(compareNew), out); err != nil {
			t.Fatal(err)
		}
	}
	if a.String() != b.String() {
		t.Fatalf("two runs differ:\n%s\n%s", a.String(), b.String())
	}
	for _, want := range []string{"BenchmarkPool-2", "0.500", "faster", "4 → 2", "BenchmarkFlat"} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, a.String())
		}
	}
	if strings.Contains(a.String(), "OnlyOld") || strings.Contains(a.String(), "OnlyNew") {
		t.Errorf("a benchmark in one sweep only was compared:\n%s", a.String())
	}
	err := compare(strings.NewReader("BenchmarkA 1 1 ns/op\n"), strings.NewReader("BenchmarkB 1 1 ns/op\n"), &bytes.Buffer{})
	if err == nil {
		t.Fatal("sweeps with no benchmark in common compared without an error")
	}
}

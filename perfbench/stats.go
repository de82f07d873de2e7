package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), NaN when empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie above a reported tail percentile.
const tailBeyond = 10

// tailPercentile applies the benchmark's percentile rule: report the highest
// whole percentile that still has at least ten samples strictly above it.
// It returns the percentile, its value (nearest-rank) and ok=false when the
// sample is too small for any percentile to qualify (fewer than 11 samples).
func tailPercentile(xs []float64) (pct int, value float64, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for p := 99; p >= 1; p-- {
		// Nearest-rank: the smallest sample with at least p% of the samples
		// at or below it.
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		if rank < 1 {
			rank = 1
		}
		v := s[rank-1]
		beyond := 0
		for _, x := range s[rank:] {
			if x > v {
				beyond++
			}
		}
		if beyond >= tailBeyond {
			return p, v, true
		}
	}
	return 0, math.NaN(), false
}

// percentile returns the nearest-rank p-th percentile of xs (NaN if empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// interval is one timed span, in seconds since a common origin.
type interval struct{ start, end float64 }

// unionLength is the total length covered by the intervals: overlapping parts
// count once, so concurrent children never cover more than their parent.
func unionLength(iv []interval) float64 {
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total float64
	curStart, curEnd := math.Inf(-1), math.Inf(-1)
	for _, x := range s {
		if x.end <= x.start {
			continue
		}
		if x.start > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = x.start, x.end
			continue
		}
		if x.end > curEnd {
			curEnd = x.end
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}

// span is one recorded trace span (from obs trace.jsonl or from the
// benchmark's own instrumentation), in seconds.
type span struct {
	id, parent int64
	name       string
	start, dur float64
	attrs      map[string]string
}

// spanFold is the per-span-name self-time fold of a trace.
type spanFold struct {
	// total and self are summed seconds per span name; self is a span's
	// duration minus the union of its children's intervals, clipped to the
	// span itself.
	total, self map[string]float64
	count       map[string]int
}

// foldSpans computes per-name total and self time. Children's intervals are
// merged before subtraction, so overlapping children (parallel CAAFE
// sessions, concurrent row completions) are not counted twice.
func foldSpans(spans []span) spanFold {
	kids := make(map[int64][]interval)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], interval{s.start, s.start + s.dur})
		}
	}
	f := spanFold{total: map[string]float64{}, self: map[string]float64{}, count: map[string]int{}}
	for _, s := range spans {
		f.total[s.name] += s.dur
		f.count[s.name]++
		f.self[s.name] += s.dur - covered(s, kids[s.id])
	}
	return f
}

// covered is how much of s its children cover, clipped to s's own interval.
func covered(s span, children []interval) float64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := math.Max(c.start, s.start), math.Min(c.end, s.start+s.dur)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	return unionLength(clipped)
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetricName enforces the metric-name alphabet [A-Za-z0-9_.-], starting
// with a letter or digit, at most 64 characters.
func checkMetricName(name string) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("metric name %q is outside [A-Za-z0-9_.-] (letter or digit first, at most 64)", name)
	}
	return nil
}

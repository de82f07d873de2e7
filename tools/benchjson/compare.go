package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"text/tabwriter"
)

// bootstrapResamples is how many resampled medians each confidence
// interval is read from.
const bootstrapResamples = 2000

// Comparison is one benchmark's ns/op in two sweeps: the medians of the
// runs, their ratio new/old and a 95 % bootstrap confidence interval of
// that ratio.
type Comparison struct {
	Key              string
	OldRuns, NewRuns int
	OldMedian        float64
	NewMedian        float64
	Ratio, Lo, Hi    float64
	// OldAllocs and NewAllocs are the median allocs/op, -1 without
	// -benchmem.
	OldAllocs, NewAllocs float64
}

// median returns the median of vals, sorting them in place.
func median(vals []float64) float64 {
	slices.Sort(vals)
	n := len(vals)
	if n%2 == 0 {
		return (vals[n/2-1] + vals[n/2]) / 2
	}
	return vals[n/2]
}

// ratioInterval is the percentile bootstrap of median(new)/median(old):
// each resample draws both sweeps' runs with replacement, and the interval
// is the 2.5th and 97.5th percentiles of the resampled ratios. rng seeds
// the draws, so one input gives one interval.
func ratioInterval(before, after []float64, rng *rand.Rand) (lo, hi float64) {
	ratios := make([]float64, bootstrapResamples)
	a, b := make([]float64, len(before)), make([]float64, len(after))
	for r := range ratios {
		for i := range a {
			a[i] = before[rng.Intn(len(before))]
		}
		for i := range b {
			b[i] = after[rng.Intn(len(after))]
		}
		ratios[r] = median(b) / median(a)
	}
	slices.Sort(ratios)
	return ratios[bootstrapResamples*25/1000], ratios[bootstrapResamples*975/1000-1]
}

// compareSweeps pairs the benchmarks of two sweeps by key, in key order.
// Benchmarks in only one sweep are left out.
func compareSweeps(before, after Report) []Comparison {
	type runs struct{ ns, allocs []float64 }
	group := func(r Report) map[string]*runs {
		m := map[string]*runs{}
		for _, b := range r.Benchmarks {
			g := m[b.key()]
			if g == nil {
				g = &runs{}
				m[b.key()] = g
			}
			g.ns = append(g.ns, b.NsPerOp)
			if b.AllocsPerOp != nil {
				g.allocs = append(g.allocs, float64(*b.AllocsPerOp))
			}
		}
		return m
	}
	allocs := func(vals []float64) float64 {
		if len(vals) == 0 {
			return -1
		}
		return median(vals)
	}
	olds, news := group(before), group(after)
	var keys []string
	for k := range olds {
		if news[k] != nil {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	rng := rand.New(rand.NewSource(1))
	out := make([]Comparison, 0, len(keys))
	for _, k := range keys {
		o, n := olds[k], news[k]
		c := Comparison{Key: k, OldRuns: len(o.ns), NewRuns: len(n.ns),
			OldAllocs: allocs(o.allocs), NewAllocs: allocs(n.allocs)}
		c.Lo, c.Hi = ratioInterval(o.ns, n.ns, rng)
		c.OldMedian, c.NewMedian = median(o.ns), median(n.ns)
		c.Ratio = c.NewMedian / c.OldMedian
		out = append(out, c)
	}
	return out
}

// verdict reads a ratio's interval: a change is called only when the
// interval leaves 1 out.
func (c Comparison) verdict() string {
	switch {
	case c.Hi < 1:
		return "faster"
	case c.Lo > 1:
		return "slower"
	}
	return "~"
}

// compare writes the comparison of two `go test -bench` outputs as a table.
func compare(before, after io.Reader, out io.Writer) error {
	o, err := parse(before)
	if err != nil {
		return fmt.Errorf("old: %w", err)
	}
	n, err := parse(after)
	if err != nil {
		return fmt.Errorf("new: %w", err)
	}
	cs := compareSweeps(o, n)
	if len(cs) == 0 {
		return errors.New("no benchmark runs in both sweeps")
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\truns\told ns/op\tnew ns/op\tnew/old\t95% CI\t\tallocs/op\t")
	for _, c := range cs {
		allocs := "-"
		if c.OldAllocs >= 0 && c.NewAllocs >= 0 {
			allocs = fmt.Sprintf("%g → %g", c.OldAllocs, c.NewAllocs)
		}
		fmt.Fprintf(tw, "%s\t%d/%d\t%.4g\t%.4g\t%.3f\t[%.3f, %.3f]\t%s\t%s\t\n",
			c.Key, c.OldRuns, c.NewRuns, c.OldMedian, c.NewMedian, c.Ratio, c.Lo, c.Hi, c.verdict(), allocs)
	}
	return tw.Flush()
}

// compareFiles runs compare on the sweeps saved in two files.
func compareFiles(oldPath, newPath string, out io.Writer) error {
	before, err := os.Open(oldPath)
	if err != nil {
		return err
	}
	defer before.Close()
	after, err := os.Open(newPath)
	if err != nil {
		return err
	}
	defer after.Close()
	return compare(before, after, out)
}

package datasets

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
	"time"
)

// sortedLabels is the label cut as a full sort makes it: the k-th value of
// a sort.Float64s copy, k = int(n·(1-posRate)), and a 1 for every score at
// least that cut.
func sortedLabels(scores []float64, posRate float64) []float64 {
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	cut := sorted[int(float64(len(sorted))*(1-posRate))]
	out := make([]float64, len(scores))
	for i, v := range scores {
		if v >= cut {
			out[i] = 1
		}
	}
	return out
}

// labelCutValues are the values a fuzzed byte below 0x80 stands for, so
// that ties, NaNs, infinities and both zeros come up often.
var labelCutValues = []float64{
	math.NaN(), math.Float64frombits(0xfff8000000000001), math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1), 1, -1, 2, 0.5, math.SmallestNonzeroFloat64, math.MaxFloat64,
}

// labelCutScores reads one score a step: a byte below 0x80 picks one of
// labelCutValues, any other byte is followed by the score's 8 raw bytes.
func labelCutScores(data []byte) []float64 {
	var out []float64
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		if b < 0x80 || len(data) < 8 {
			out = append(out, labelCutValues[int(b)%len(labelCutValues)])
			continue
		}
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return out
}

// FuzzLabelCut holds labelsFromScores, whose cut is a selection, to the
// labels a sorted copy gives, at the fuzzed positive rate and at the rates
// that put the cut at the smallest score (k = 0) and the largest
// (k = n-1). Labels are compared, not the cut: −0 and +0 tie, so either is
// a right cut. The scores must come back unchanged.
func FuzzLabelCut(f *testing.F) {
	f.Add(uint16(0), []byte{6})
	f.Add(uint16(349), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(uint16(899), []byte{4, 5, 4, 5, 6, 6, 6, 0, 0, 7, 1})
	f.Add(uint16(499), []byte{0x80, 1, 2, 3, 4, 5, 6, 7, 0x40, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 8})
	s := newSynth(1)
	f.Fuzz(func(t *testing.T, rate uint16, data []byte) {
		scores := labelCutScores(data)
		n := len(scores)
		if n == 0 {
			return
		}
		before := make([]uint64, n)
		for i, v := range scores {
			before[i] = math.Float64bits(v)
		}
		for _, posRate := range []float64{float64(rate%1000+1) / 1000, 1, 0.5 / float64(n)} {
			got := s.labelsFromScores(scores, posRate, 0)
			want := sortedLabels(scores, posRate)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("posRate %v, k %d, scores %v: row %d labelled %v, the sorted cut gives %v",
						posRate, int(float64(n)*(1-posRate)), scores, i, got[i], want[i])
				}
			}
		}
		for i, v := range scores {
			if math.Float64bits(v) != before[i] {
				t.Fatalf("scores[%d] changed from %x to %x", i, before[i], math.Float64bits(v))
			}
		}
	})
}

// TestLabelCutBounded times the cut on a million sorted, reversed,
// all-equal and organ-pipe scores, the inputs that make a plain quickselect
// quadratic; organ-pipe scores run out the unbalanced rounds and reach the
// sort of the remaining range. Each cut takes milliseconds and a quadratic
// one minutes, so each must finish within 10 s, and agree with the sorted
// cut.
func TestLabelCutBounded(t *testing.T) {
	const n = 1_000_000
	inputs := map[string]func(i int) float64{
		"sorted":     func(i int) float64 { return float64(i) },
		"reversed":   func(i int) float64 { return float64(n - i) },
		"all-equal":  func(i int) float64 { return 1 },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-1-i)) },
	}
	for name, at := range inputs {
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = at(i)
		}
		sorted := append([]float64(nil), scores...)
		sort.Float64s(sorted)
		for _, k := range []int{0, n / 2, n * 9 / 10, n - 1} {
			done := make(chan float64, 1)
			go func() { done <- kthSmallest(scores, k) }()
			select {
			case got := <-done:
				if got != sorted[k] {
					t.Errorf("%s, k %d: cut %v, the sorted cut is %v", name, k, got, sorted[k])
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s, k %d: the cut took over 10 s", name, k)
			}
		}
	}
}

// Package metrics implements the evaluation protocol from the paper:
// ROC-AUC as the primary metric, seeded 75/25 train-test splits and
// stratified k-fold cross-validation.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// AUC computes the area under the ROC curve via the rank statistic
// (Mann-Whitney U) with midrank tie handling — the same definition
// sklearn.metrics.roc_auc_score uses. Scores are P(y=1); labels are 0/1.
func AUC(labels []int, scores []float64) (float64, error) {
	if len(labels) != len(scores) {
		return 0, fmt.Errorf("metrics: %d labels vs %d scores", len(labels), len(scores))
	}
	n := len(labels)
	if n == 0 {
		return 0, fmt.Errorf("metrics: empty input")
	}
	pos, neg := 0, 0
	for i, l := range labels {
		if math.IsNaN(scores[i]) {
			return 0, fmt.Errorf("metrics: NaN score at row %d", i)
		}
		switch l {
		case 1:
			pos++
		case 0:
			neg++
		default:
			return 0, fmt.Errorf("metrics: non-binary label %d", l)
		}
	}
	if pos == 0 || neg == 0 {
		return 0, fmt.Errorf("metrics: AUC undefined with a single class (pos=%d neg=%d)", pos, neg)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	// Midranks over tie groups.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[idx[k]] = mid
		}
		i = j
	}
	sumPos := 0.0
	for i, l := range labels {
		if l == 1 {
			sumPos += ranks[i]
		}
	}
	u := sumPos - float64(pos)*float64(pos+1)/2
	return u / (float64(pos) * float64(neg)), nil
}

// TrainTestSplit returns shuffled row indices for a (1-testFrac)/testFrac
// split, seeded for reproducibility (the paper uses 75/25).
func TrainTestSplit(n int, testFrac float64, seed int64) (train, test []int) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	nTest := int(math.Round(float64(n) * testFrac))
	if nTest < 1 && n > 1 {
		nTest = 1
	}
	if nTest >= n {
		nTest = n - 1
	}
	test = append([]int(nil), perm[:nTest]...)
	train = append([]int(nil), perm[nTest:]...)
	sort.Ints(train)
	sort.Ints(test)
	return train, test
}

// TakeLabels gathers y at the given row indices — the label-side companion
// of the row gathers (dataframe.Frame.ColMatrix, ml.Matrix.TakeRows) for the
// splits TrainTestSplit produces.
func TakeLabels(y []int, idx []int) []int {
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = y[i]
	}
	return out
}

// Mean returns the arithmetic mean, NaN for empty input.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Median returns the median, NaN for empty input.
func Median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), vals...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

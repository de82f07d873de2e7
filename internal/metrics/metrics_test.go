package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAUCPerfect(t *testing.T) {
	labels := []int{0, 0, 1, 1}
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	auc, err := AUC(labels, scores)
	if err != nil || auc != 1 {
		t.Fatalf("auc = %v, %v", auc, err)
	}
}

func TestAUCWorst(t *testing.T) {
	labels := []int{1, 1, 0, 0}
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	auc, _ := AUC(labels, scores)
	if auc != 0 {
		t.Fatalf("auc = %v, want 0", auc)
	}
}

func TestAUCRandomIsHalf(t *testing.T) {
	// Constant scores → all ties → AUC exactly 0.5 via midranks.
	labels := []int{0, 1, 0, 1, 1, 0}
	scores := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	auc, _ := AUC(labels, scores)
	if auc != 0.5 {
		t.Fatalf("tied auc = %v, want 0.5", auc)
	}
}

func TestAUCKnownValue(t *testing.T) {
	// Hand-computed: pos scores {0.8, 0.4}, neg scores {0.6, 0.2}.
	// Pairs: (0.8>0.6)=1 (0.8>0.2)=1 (0.4<0.6)=0 (0.4>0.2)=1 → 3/4.
	labels := []int{1, 0, 1, 0}
	scores := []float64{0.8, 0.6, 0.4, 0.2}
	auc, _ := AUC(labels, scores)
	if math.Abs(auc-0.75) > 1e-12 {
		t.Fatalf("auc = %v, want 0.75", auc)
	}
}

func TestAUCTieHandling(t *testing.T) {
	// A tie between a pos and a neg counts 1/2.
	labels := []int{1, 0}
	scores := []float64{0.5, 0.5}
	auc, _ := AUC(labels, scores)
	if auc != 0.5 {
		t.Fatalf("tie = %v, want 0.5", auc)
	}
}

func TestAUCErrors(t *testing.T) {
	if _, err := AUC([]int{1}, []float64{0.1, 0.2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := AUC(nil, nil); err == nil {
		t.Fatal("empty should error")
	}
	if _, err := AUC([]int{1, 1}, []float64{0.5, 0.6}); err == nil {
		t.Fatal("single class should error")
	}
	if _, err := AUC([]int{1, 2}, []float64{0.5, 0.6}); err == nil {
		t.Fatal("non-binary should error")
	}
	if _, err := AUC([]int{1, 0}, []float64{math.NaN(), 0.6}); err == nil {
		t.Fatal("NaN score should error")
	}
}

func TestAUCInvariantToMonotoneTransform(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		labels := make([]int, n)
		scores := make([]float64, n)
		pos := 0
		for i := range labels {
			labels[i] = rng.Intn(2)
			pos += labels[i]
			scores[i] = rng.Float64()
		}
		if pos == 0 || pos == n {
			return true
		}
		a1, err1 := AUC(labels, scores)
		transformed := make([]float64, n)
		for i, s := range scores {
			transformed[i] = 3*s + 7 // strictly increasing
		}
		a2, err2 := AUC(labels, transformed)
		return err1 == nil && err2 == nil && math.Abs(a1-a2) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAUCComplementSymmetry(t *testing.T) {
	// AUC(y, s) + AUC(y, -s) = 1 (with midrank ties).
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40
		labels := make([]int, n)
		scores := make([]float64, n)
		pos := 0
		for i := range labels {
			labels[i] = rng.Intn(2)
			pos += labels[i]
			scores[i] = math.Round(rng.Float64()*10) / 10 // induce ties
		}
		if pos == 0 || pos == n {
			return true
		}
		neg := make([]float64, n)
		for i, s := range scores {
			neg[i] = -s
		}
		a1, _ := AUC(labels, scores)
		a2, _ := AUC(labels, neg)
		return math.Abs(a1+a2-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainTestSplit(t *testing.T) {
	train, test := TrainTestSplit(100, 0.25, 42)
	if len(test) != 25 || len(train) != 75 {
		t.Fatalf("split sizes %d/%d", len(train), len(test))
	}
	seen := make(map[int]bool)
	for _, i := range append(append([]int{}, train...), test...) {
		if seen[i] {
			t.Fatal("overlapping split")
		}
		seen[i] = true
	}
	if len(seen) != 100 {
		t.Fatal("split must cover all rows")
	}
	// Deterministic for equal seed.
	tr2, te2 := TrainTestSplit(100, 0.25, 42)
	for i := range train {
		if train[i] != tr2[i] {
			t.Fatal("split not deterministic")
		}
	}
	for i := range test {
		if test[i] != te2[i] {
			t.Fatal("split not deterministic")
		}
	}
}

func TestTrainTestSplitEdge(t *testing.T) {
	train, test := TrainTestSplit(2, 0.01, 1)
	if len(test) != 1 || len(train) != 1 {
		t.Fatalf("tiny split %d/%d", len(train), len(test))
	}
	train, test = TrainTestSplit(3, 0.99, 1)
	if len(train) < 1 {
		t.Fatal("train must keep at least one row")
	}
	_ = test
}

func TestMeanMedian(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median wrong")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median wrong")
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Median(nil)) {
		t.Fatal("empty should be NaN")
	}
}

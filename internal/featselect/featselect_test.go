package featselect

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/ml"
)

// buildSignalData creates features where column 0 carries the label signal,
// column 1 is weak, column 2 is noise.
func buildSignalData(n int, seed int64) (*ml.Matrix, []string, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := ml.NewMatrix(n, 3)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		signal := rng.NormFloat64()
		weak := signal + 3*rng.NormFloat64()
		noise := rng.NormFloat64()
		X.Col(0)[i] = signal
		X.Col(1)[i] = weak
		X.Col(2)[i] = noise
		if signal > 0 {
			y[i] = 1
		}
	}
	return X, []string{"signal", "weak", "noise"}, y
}

func TestMutualInfoOrdering(t *testing.T) {
	X, names, y := buildSignalData(2000, 1)
	ranked, err := RankMutualInfo(X, names, y)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Name != "signal" {
		t.Fatalf("top by MI should be signal, got %v", ranked)
	}
	if ranked[0].Score <= ranked[2].Score {
		t.Fatal("signal should dominate noise")
	}
}

func TestMutualInfoBasics(t *testing.T) {
	// Perfectly informative binary feature.
	x := []float64{0, 0, 1, 1}
	y := []int{0, 0, 1, 1}
	mi, err := MutualInfo(x, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mi-math.Ln2) > 1e-9 {
		t.Fatalf("perfect MI = %v, want ln2", mi)
	}
	// Independent feature → MI ≈ 0.
	x = []float64{0, 1, 0, 1}
	y = []int{0, 0, 1, 1}
	mi, _ = MutualInfo(x, y, 4)
	if mi > 1e-9 {
		t.Fatalf("independent MI = %v, want 0", mi)
	}
}

func TestMutualInfoNaNBin(t *testing.T) {
	// NaN pattern perfectly correlated with label → high MI.
	x := []float64{math.NaN(), math.NaN(), 1, 1}
	y := []int{1, 1, 0, 0}
	mi, err := MutualInfo(x, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mi < math.Ln2-1e-9 {
		t.Fatalf("NaN-informative MI = %v", mi)
	}
}

func TestMutualInfoErrors(t *testing.T) {
	if _, err := MutualInfo([]float64{1}, []int{1, 0}, 4); err == nil {
		t.Fatal("mismatch should error")
	}
	if _, err := MutualInfo(nil, nil, 4); err == nil {
		t.Fatal("empty should error")
	}
}

func TestRFERanksSignalHighest(t *testing.T) {
	X, names, y := buildSignalData(800, 2)
	ranked, err := RFE(X, names, y)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Name != "signal" {
		t.Fatalf("RFE top should be signal, got %+v", ranked)
	}
}

func TestTreeImportanceRanksSignalHighest(t *testing.T) {
	X, names, y := buildSignalData(800, 3)
	ranked, err := TreeImportance(X, names, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Name != "signal" {
		t.Fatalf("FI top should be signal, got %+v", ranked)
	}
}

func TestTopK(t *testing.T) {
	rs := []Ranked{{"a", 3}, {"b", 2}, {"c", 1}}
	if got := TopK(rs, 2); len(got) != 2 || got[0] != "a" {
		t.Fatalf("topk = %v", got)
	}
	if got := TopK(rs, 10); len(got) != 3 {
		t.Fatal("topk should clamp")
	}
}

func TestRankedDeterministicTieBreak(t *testing.T) {
	rs := []Ranked{{"z", 1}, {"a", 1}, {"m", 2}}
	sortRanked(rs)
	if rs[0].Name != "m" || rs[1].Name != "a" || rs[2].Name != "z" {
		t.Fatalf("tie break wrong: %v", rs)
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	if r := Pearson(a, b); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect corr = %v", r)
	}
	c := []float64{4, 3, 2, 1}
	if r := Pearson(a, c); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect anticorr = %v", r)
	}
	if r := Pearson(a, []float64{5, 5, 5, 5}); r != 0 {
		t.Fatalf("constant corr = %v", r)
	}
	// NaN rows skipped.
	d := []float64{2, math.NaN(), 6, 8}
	if r := Pearson(a, d); math.Abs(r-1) > 1e-12 {
		t.Fatalf("NaN-skipping corr = %v", r)
	}
	if r := Pearson([]float64{1}, []float64{2}); r != 0 {
		t.Fatal("n<2 should be 0")
	}
}

// pearsonPair decodes a fuzz input into two equally long columns. With
// the first byte even, each further byte pair is one row of small values
// (a byte of 0x80 reads NaN), so constants, ties and NaN rows are common;
// with it odd, each 16 bytes are two raw float64s, ±Inf and subnormals
// included.
func pearsonPair(data []byte) (a, b []float64) {
	if len(data) == 0 {
		return nil, nil
	}
	small := func(c byte) float64 {
		if c == 0x80 {
			return math.NaN()
		}
		return float64(int8(c)) / 4
	}
	mode, data := data[0], data[1:]
	if mode%2 == 0 {
		for ; len(data) >= 2; data = data[2:] {
			a, b = append(a, small(data[0])), append(b, small(data[1]))
		}
		return a, b
	}
	for ; len(data) >= 16; data = data[16:] {
		a = append(a, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		b = append(b, math.Float64frombits(binary.LittleEndian.Uint64(data[8:])))
	}
	return a, b
}

// FuzzPearsonMoments holds the selector's cached-moment correlation to
// Pearson bit for bit, either way round: NaN rows (Pearson's path), constant
// columns, ±Inf, and columns of length 0, 1 and 2.
func FuzzPearsonMoments(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 8})
	f.Add([]byte{0, 4, 8, 12, 3})
	f.Add([]byte{0, 4, 8, 4, 9, 4, 1, 4, 200})
	f.Add([]byte{0, 1, 2, 0x80, 5, 3, 0x80, 7, 9})
	f.Add([]byte{0, 1, 2, 2, 4, 3, 6, 4, 8, 250, 12})
	raw := []byte{1}
	for _, v := range []float64{1, math.Inf(1), 2, 3, -4, 5e-324, 7, math.NaN()} {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := pearsonPair(data)
		for _, pair := range [][2][]float64{{a, b}, {b, a}} {
			x, y := pair[0], pair[1]
			want := Pearson(x, y)
			got := pearsonMoments(newMoments("x", x), newMoments("y", y))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("x %v, y %v: moments give %v (%x), Pearson %v (%x)", x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}

func TestCheckMatrixErrors(t *testing.T) {
	if _, err := RankMutualInfo(nil, nil, nil); err == nil {
		t.Fatal("empty should error")
	}
	one := ml.NewMatrix(1, 1)
	if _, err := RankMutualInfo(one, []string{"a", "b"}, []int{1}); err == nil {
		t.Fatal("name mismatch should error")
	}
	if _, err := RFE(one, []string{"a"}, []int{1, 0}); err == nil {
		t.Fatal("label mismatch should error")
	}
}

func verifyFrame(t *testing.T) *dataframe.Frame {
	t.Helper()
	f := dataframe.New()
	if err := f.AddNumeric("keep", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNumeric("constant", []float64{5, 5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	nully := dataframe.NewNumeric("nully", []float64{1, 2, 3, 4})
	nully.SetNull(0)
	nully.SetNull(1)
	nully.SetNull(2)
	if err := f.Add(nully); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNumeric("dup", []float64{2, 4, 6, 8}); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestVerifyFeaturesFilters(t *testing.T) {
	f := verifyFrame(t)
	report := VerifyFeatures(f, []string{"keep", "constant", "nully"}, nil, nil, DefaultFilterOptions())
	if len(report.Kept) != 1 || report.Kept[0] != "keep" {
		t.Fatalf("kept = %v", report.Kept)
	}
	if len(report.Dropped) != 2 {
		t.Fatalf("dropped = %v", report.Dropped)
	}
	if f.Has("constant") || f.Has("nully") {
		t.Fatal("filtered columns should be removed from frame")
	}
	if !f.Has("dup") {
		t.Fatal("non-candidate columns must survive")
	}
}

func TestVerifyFeaturesCorrelationCap(t *testing.T) {
	f := verifyFrame(t)
	opts := DefaultFilterOptions()
	opts.MaxAbsCorrelation = 0.95
	// dup is perfectly correlated with keep (kept, non-candidate).
	report := VerifyFeatures(f, []string{"dup"}, nil, nil, opts)
	if len(report.Dropped) != 1 {
		t.Fatalf("correlated feature should drop: %+v", report)
	}
}

func TestVerifyFeaturesProtect(t *testing.T) {
	f := verifyFrame(t)
	protect := map[string]bool{"constant": true}
	report := VerifyFeatures(f, []string{"constant"}, protect, nil, DefaultFilterOptions())
	if len(report.Dropped) != 0 || !f.Has("constant") {
		t.Fatal("protected column must never drop")
	}
	_ = report
}

func TestVerifyFeaturesDummyCardinality(t *testing.T) {
	f := verifyFrame(t)
	dummySource := map[string]int{"keep": 50}
	opts := DefaultFilterOptions()
	report := VerifyFeatures(f, []string{"keep"}, nil, dummySource, opts)
	if len(report.Dropped) != 1 {
		t.Fatalf("high-card dummy should drop: %+v", report)
	}
}

func TestVerifyFeaturesMissingColumn(t *testing.T) {
	f := verifyFrame(t)
	report := VerifyFeatures(f, []string{"ghost"}, nil, nil, DefaultFilterOptions())
	if len(report.Dropped) != 1 || report.Dropped[0].Reason != "missing" {
		t.Fatalf("missing column should be reported: %+v", report)
	}
}

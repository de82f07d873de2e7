package ml

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"smartfeat/internal/metrics"
	"smartfeat/internal/par"
)

// synthLinear builds a linearly separable-ish dataset with noise.
func synthLinear(n, d int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, d)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, d)
		z := 0.0
		for j := range row {
			row[j] = rng.NormFloat64()
			z += w[j] * row[j]
		}
		X[i] = row
		if z+0.5*rng.NormFloat64() > 0 {
			y[i] = 1
		}
	}
	return X, y
}

// synthXOR builds a dataset only non-linear models can separate.
func synthXOR(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		X[i] = []float64{a, b}
		if (a > 0) != (b > 0) {
			y[i] = 1
		}
	}
	return X, y
}

// mustMatrix converts a rectangular row-major test fixture into the
// columnar Matrix.
func mustMatrix(t testing.TB, X [][]float64) *Matrix {
	t.Helper()
	if len(X) == 0 {
		t.Fatal("empty matrix")
	}
	m := NewMatrix(len(X), len(X[0]))
	for i, row := range X {
		if len(row) != m.cols {
			t.Fatalf("ragged matrix at row %d", i)
		}
		for j, v := range row {
			m.Col(j)[i] = v
		}
	}
	return m
}

// sameRows reports whether m holds exactly the rows of want.
func sameRows(m *Matrix, want [][]float64) bool {
	if m.Rows() != len(want) {
		return false
	}
	for i, row := range want {
		if len(row) != m.Cols() {
			return false
		}
		for j, v := range row {
			if m.At(i, j) != v {
				return false
			}
		}
	}
	return true
}

func fitAUC(t *testing.T, c Classifier, X [][]float64, y []int) float64 {
	t.Helper()
	train, test := metrics.TrainTestSplit(len(X), 0.25, 7)
	Xtr, ytr := take(X, y, train)
	Xte, yte := take(X, y, test)
	if err := c.Fit(mustMatrix(t, Xtr), ytr); err != nil {
		t.Fatalf("%s fit: %v", c.Name(), err)
	}
	auc, err := metrics.AUC(yte, c.PredictProba(mustMatrix(t, Xte)))
	if err != nil {
		t.Fatalf("%s auc: %v", c.Name(), err)
	}
	return auc
}

func take(X [][]float64, y []int, idx []int) ([][]float64, []int) {
	Xo := make([][]float64, len(idx))
	yo := make([]int, len(idx))
	for k, i := range idx {
		Xo[k] = X[i]
		yo[k] = y[i]
	}
	return Xo, yo
}

func TestMatrixRoundTrip(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	m := mustMatrix(t, rows)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %d×%d", m.Rows(), m.Cols())
	}
	if m.At(1, 2) != 6 || m.At(0, 1) != 2 {
		t.Fatal("At wrong")
	}
	if got := m.Col(1); got[0] != 2 || got[1] != 5 {
		t.Fatalf("Col(1) = %v", got)
	}
	if got := m.Row(1, nil); got[0] != 4 || got[2] != 6 {
		t.Fatalf("Row(1) = %v", got)
	}
	if !sameRows(m, rows) {
		t.Fatal("round trip mismatch")
	}
}

func TestMatrixTakeRowsSelectCols(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	sub := m.TakeRows([]int{2, 0, 2})
	want := [][]float64{{5, 6}, {1, 2}, {5, 6}}
	if !sameRows(sub, want) {
		t.Fatalf("TakeRows mismatch: %v", sub.data)
	}
	cols := m.SelectCols([]int{1})
	if cols.Cols() != 1 || cols.At(2, 0) != 6 {
		t.Fatalf("SelectCols wrong: %v", cols.data)
	}
	// Mutating a clone must not touch the original.
	cl := m.Clone()
	cl.Col(0)[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Clone should deep copy")
	}
}

// Clone returns a deep copy: the reference copy the preprocessing tests
// compare the pipeline's own copies against.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{rows: m.rows, cols: m.cols, data: make([]float64, len(m.data))}
	copy(out.data, m.data)
	return out
}

func TestLogisticLearnsLinear(t *testing.T) {
	X, y := synthLinear(600, 5, 1)
	auc := fitAUC(t, NewLogistic(), X, y)
	if auc < 0.85 {
		t.Fatalf("LR AUC = %.3f, want ≥ 0.85", auc)
	}
}

func TestGaussianNBLearnsShiftedGaussians(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 600
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % 2
		y[i] = c
		X[i] = []float64{rng.NormFloat64() + 2*float64(c), rng.NormFloat64() - float64(c)}
	}
	auc := fitAUC(t, NewGaussianNB(), X, y)
	if auc < 0.85 {
		t.Fatalf("NB AUC = %.3f, want ≥ 0.85", auc)
	}
}

func TestTreeLearnsXOR(t *testing.T) {
	X, y := synthXOR(800, 3)
	tree := NewTree(TreeConfig{MaxDepth: 6, Seed: 3})
	auc := fitAUC(t, tree, X, y)
	if auc < 0.9 {
		t.Fatalf("tree AUC on XOR = %.3f, want ≥ 0.9", auc)
	}
	if len(tree.nodes) < 3 {
		t.Fatal("tree did not split")
	}
}

func TestLogisticFailsXOR(t *testing.T) {
	// Sanity check that XOR really is non-linear: LR should hover near 0.5.
	X, y := synthXOR(800, 3)
	auc := fitAUC(t, NewLogistic(), X, y)
	if auc > 0.65 {
		t.Fatalf("LR should not solve XOR, got AUC %.3f", auc)
	}
}

func TestRandomForestBeatsSingleTreeOnNoisy(t *testing.T) {
	X, y := synthLinear(800, 8, 4)
	fAUC := fitAUC(t, NewRandomForest(30, 5), X, y)
	if fAUC < 0.8 {
		t.Fatalf("RF AUC = %.3f, want ≥ 0.8", fAUC)
	}
}

func TestExtraTreesLearns(t *testing.T) {
	X, y := synthXOR(800, 6)
	auc := fitAUC(t, NewExtraTrees(30, 7), X, y)
	if auc < 0.85 {
		t.Fatalf("ET AUC = %.3f, want ≥ 0.85", auc)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	X, y := synthXOR(800, 8)
	mlp := NewMLP(9)
	mlp.Hidden = 32 // smaller for test speed
	mlp.Epochs = 40
	auc := fitAUC(t, mlp, X, y)
	if auc < 0.9 {
		t.Fatalf("MLP AUC on XOR = %.3f, want ≥ 0.9", auc)
	}
}

// TestMLPFitAllocsFlat checks that a fit allocates the same number of
// times whatever its epochs and rows: every buffer, the per-unit gradient
// lists included, is sized once, up front.
func TestMLPFitAllocsFlat(t *testing.T) {
	allocs := func(rows, epochs int) float64 {
		Xr, y := synthLinear(rows, 6, 3)
		X := mustMatrix(t, Xr)
		return testing.AllocsPerRun(3, func() {
			m := &MLP{Hidden: 20, Epochs: epochs, BatchSize: 16, LearningRate: 1e-3, Seed: 1}
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(100, 1)
	for _, c := range []struct{ rows, epochs int }{{100, 5}, {400, 1}, {400, 5}} {
		if got := allocs(c.rows, c.epochs); got != base {
			t.Errorf("Fit over %d rows for %d epochs makes %v allocations, over 100 rows for 1 epoch %v",
				c.rows, c.epochs, got, base)
		}
	}
}

func TestForestImportancesFindSignalFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 600
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		signal := rng.NormFloat64()
		X[i] = []float64{rng.NormFloat64(), signal, rng.NormFloat64()}
		if signal > 0 {
			y[i] = 1
		}
	}
	f := NewRandomForest(20, 11)
	if err := f.Fit(mustMatrix(t, X), y); err != nil {
		t.Fatal(err)
	}
	imp := f.Importances()
	if imp[1] < imp[0] || imp[1] < imp[2] {
		t.Fatalf("importances should favour feature 1: %v", imp)
	}
	sum := imp[0] + imp[1] + imp[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances should normalise to 1, got %v", sum)
	}
}

// TestForestPanicReachesCaller fits extra-trees over a matrix whose storage
// is shorter than rows×cols. validate passes, so the index panic happens on
// a tree worker; it must come back on the caller's goroutine as a
// *par.TaskPanic carrying that worker's stack.
func TestForestPanicReachesCaller(t *testing.T) {
	const rows = 64
	X := &Matrix{rows: rows, cols: 4, data: make([]float64, rows)}
	y := make([]int, rows)
	for i := range y {
		X.data[i] = float64(i)
		y[i] = i % 2
	}
	var raised any
	func() {
		defer func() { raised = recover() }()
		NewExtraTrees(8, 3).Fit(X, y)
	}()
	tp, ok := raised.(*par.TaskPanic)
	if !ok {
		t.Fatalf("Fit raised %v (%T), want a *par.TaskPanic", raised, raised)
	}
	if !strings.Contains(string(tp.Stack), "ml.(*Tree)") {
		t.Fatalf("stack is not the tree worker's:\n%s", tp.Stack)
	}
}

func TestValidateRejectsBadInput(t *testing.T) {
	c := NewLogistic()
	if err := c.Fit(nil, nil); err == nil {
		t.Fatal("empty should error")
	}
	one := mustMatrix(t, [][]float64{{1}})
	if err := c.Fit(one, []int{1, 0}); err == nil {
		t.Fatal("length mismatch should error")
	}
	two := mustMatrix(t, [][]float64{{1}, {2}})
	if err := c.Fit(two, []int{0, 2}); err == nil {
		t.Fatal("non-binary labels should error")
	}
	if err := c.Fit(NewMatrix(2, 0), []int{0, 1}); err == nil {
		t.Fatal("zero features should error")
	}
}

func TestSingleClassTraining(t *testing.T) {
	// Models should not crash when trained on one class.
	X := mustMatrix(t, [][]float64{{1}, {2}, {3}})
	y := []int{1, 1, 1}
	probe := mustMatrix(t, [][]float64{{1.5}})
	for _, c := range []Classifier{NewLogistic(), NewGaussianNB(), NewTree(TreeConfig{}), NewRandomForest(5, 1), NewExtraTrees(5, 1)} {
		if err := c.Fit(X, y); err != nil {
			t.Fatalf("%s single class fit: %v", c.Name(), err)
		}
		p := c.PredictProba(probe)
		if math.IsNaN(p[0]) {
			t.Fatalf("%s produced NaN", c.Name())
		}
	}
}

func TestNewFactory(t *testing.T) {
	for _, name := range ModelNames {
		c, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("New(%s).Name() = %s", name, c.Name())
		}
	}
	if _, err := New("SVM", 1); err == nil {
		t.Fatal("unknown model should error")
	}
}

func TestPredictBeforeFit(t *testing.T) {
	probe := mustMatrix(t, [][]float64{{1, 2}})
	for _, name := range ModelNames {
		c, _ := New(name, 1)
		p := c.PredictProba(probe)
		if len(p) != 1 {
			t.Fatalf("%s: predict before fit should return zeros, got %v", name, p)
		}
	}
}

func TestImputer(t *testing.T) {
	im := &Imputer{}
	X := mustMatrix(t, [][]float64{{1, math.NaN()}, {3, 4}, {math.NaN(), 8}})
	if err := im.Fit(X); err != nil {
		t.Fatal(err)
	}
	out := im.Transform(X, nil)
	if out.At(2, 0) != 2 { // mean of 1,3
		t.Fatalf("imputed %v, want 2", out.At(2, 0))
	}
	if out.At(0, 1) != 6 { // mean of 4,8
		t.Fatalf("imputed %v, want 6", out.At(0, 1))
	}
	// Original untouched.
	if !math.IsNaN(X.At(0, 1)) {
		t.Fatal("transform should not mutate input")
	}
	if err := im.Fit(nil); err == nil {
		t.Fatal("empty fit should error")
	}
}

func TestImputerAllNaNColumn(t *testing.T) {
	im := &Imputer{}
	X := mustMatrix(t, [][]float64{{math.NaN()}, {math.NaN()}})
	if err := im.Fit(X); err != nil {
		t.Fatal(err)
	}
	out := im.Transform(X, nil)
	if out.At(0, 0) != 0 {
		t.Fatal("all-NaN column should impute to 0")
	}
}

func TestScaler(t *testing.T) {
	sc := &Scaler{}
	X := mustMatrix(t, [][]float64{{1, 5}, {3, 5}, {5, 5}})
	if err := sc.Fit(X); err != nil {
		t.Fatal(err)
	}
	out := X.Clone()
	sc.standardize(out)
	if math.Abs(out.At(0, 0)+1.2247) > 1e-3 {
		t.Fatalf("scaled %v", out.At(0, 0))
	}
	if out.At(0, 1) != 0 || out.At(2, 1) != 0 {
		t.Fatal("constant column should map to 0")
	}
}

func TestPipelineHandlesNaNs(t *testing.T) {
	X, y := synthLinear(300, 4, 20)
	// Punch some holes.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		X[rng.Intn(len(X))][rng.Intn(4)] = math.NaN()
	}
	m := mustMatrix(t, X)
	p := NewPipeline(NewLogistic())
	if err := p.Fit(m, y); err != nil {
		t.Fatal(err)
	}
	scores := p.PredictProba(m, nil)
	for _, s := range scores {
		if math.IsNaN(s) {
			t.Fatal("pipeline output should never be NaN")
		}
	}
}

func TestDeterminism(t *testing.T) {
	X, y := synthLinear(300, 4, 30)
	m := mustMatrix(t, X)
	probe := mustMatrix(t, X[:10])
	for _, name := range []string{"RF", "ET", "DNN"} {
		a, _ := New(name, 42)
		b, _ := New(name, 42)
		if err := a.Fit(m, y); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(m, y); err != nil {
			t.Fatal(err)
		}
		pa, pb := a.PredictProba(probe), b.PredictProba(probe)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s not deterministic for equal seeds: %v vs %v", name, pa[i], pb[i])
			}
		}
	}
}

package ml

import (
	"math"
	"math/rand"
	"testing"
)

// pipelineData builds a train/test pair of columnar matrices; with holes,
// about one cell in twelve is NaN in each.
func pipelineData(t *testing.T, holes bool) (Xtr *Matrix, ytr []int, Xte *Matrix) {
	t.Helper()
	X, y := synthLinear(260, 5, 13)
	if holes {
		rng := rand.New(rand.NewSource(17))
		for i := range X {
			for j := range X[i] {
				if rng.Intn(12) == 0 {
					X[i][j] = math.NaN()
				}
			}
		}
	}
	return mustMatrix(t, X[:200]), y[:200], mustMatrix(t, X[200:])
}

// bits snapshots a matrix's storage bit for bit (NaN payloads included).
func bits(m *Matrix) []uint64 {
	out := make([]uint64, len(m.data))
	for i, v := range m.data {
		out[i] = math.Float64bits(v)
	}
	return out
}

func assertBits(t *testing.T, what string, m *Matrix, want []uint64) {
	t.Helper()
	for i, b := range bits(m) {
		if b != want[i] {
			t.Fatalf("%s: element %d changed from %x to %x", what, i, want[i], b)
		}
	}
}

// TestPipelineCopiesOnlyWhatItWrites holds ml.Pipeline to its contract on
// every model, with and without NaN in its inputs: Fit and PredictProba
// leave the caller's matrices unchanged bit for bit, and the probabilities
// equal those of a reference that clones at every step (impute into a copy,
// standardize into another copy). A model that needs no writes reads the
// caller's matrix itself.
func TestPipelineCopiesOnlyWhatItWrites(t *testing.T) {
	for _, holes := range []bool{false, true} {
		for _, name := range ModelNames {
			Xtr, ytr, Xte := pipelineData(t, holes)
			trBits, teBits := bits(Xtr), bits(Xte)
			model, err := New(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			p := NewPipeline(model)
			if err := p.Fit(Xtr, ytr); err != nil {
				t.Fatalf("%s holes=%v: %v", name, holes, err)
			}
			assertBits(t, name+" Fit train matrix", Xtr, trBits)
			got := p.PredictProba(Xte)
			assertBits(t, name+" PredictProba test matrix", Xte, teBits)
			if shared := p.imputed(Xte) == Xte; shared != (!p.scale && !holes) {
				t.Fatalf("%s holes=%v: pipeline reads the caller's matrix = %v", name, holes, shared)
			}

			refModel, err := New(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			var im Imputer
			var sc Scaler
			if err := im.Fit(Xtr); err != nil {
				t.Fatal(err)
			}
			prep := func(X *Matrix) *Matrix {
				out := im.Transform(X).Clone()
				if p.scale {
					scaled := out.Clone()
					sc.standardize(scaled)
					out = scaled
				}
				return out
			}
			if p.scale {
				if err := sc.Fit(im.Transform(Xtr)); err != nil {
					t.Fatal(err)
				}
			}
			if err := refModel.Fit(prep(Xtr), ytr); err != nil {
				t.Fatal(err)
			}
			want := refModel.PredictProba(prep(Xte))
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s holes=%v: probability %d = %v, reference %v", name, holes, i, got[i], want[i])
				}
			}
		}
	}
}

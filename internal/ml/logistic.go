package ml

import "math"

// Logistic is L2-regularized logistic regression trained with full-batch
// gradient descent and an adaptive step (the paper's "LR" downstream model;
// sklearn's LogisticRegression default is also L2). The fit runs as
// column sweeps over the flat matrix: the logit vector accumulates one
// feature column at a time and each weight gradient is a dot product of a
// contiguous column with the error vector — the same floating-point
// accumulation order as the row-major loop, so results are bit-identical.
type Logistic struct {
	// Lambda is the L2 penalty strength.
	Lambda float64
	// MaxIter bounds the gradient steps.
	MaxIter int
	// Tol stops early when the gradient norm falls below it.
	Tol float64

	weights []float64
	bias    float64
	fitted  bool
}

// NewLogistic returns a Logistic with defaults comparable to sklearn
// (C=1.0 → lambda=1/n applied per-sample below).
func NewLogistic() *Logistic {
	return &Logistic{Lambda: 1e-3, MaxIter: 300, Tol: 1e-6}
}

// Name implements Classifier.
func (lr *Logistic) Name() string { return "LR" }

// Fit implements Classifier.
func (lr *Logistic) Fit(X *Matrix, y []int) error {
	if err := validate(X, y); err != nil {
		return err
	}
	n, d := X.Rows(), X.Cols()
	lr.weights = make([]float64, d)
	lr.bias = 0
	gradW := make([]float64, d)
	z := make([]float64, n)
	e := make([]float64, n)
	step := 0.5
	prevLoss := math.Inf(1)
	for iter := 0; iter < lr.MaxIter; iter++ {
		// z = bias + Xw, accumulated feature-by-feature so each z[i] sums
		// its terms in ascending j — identical order to a per-row loop.
		for i := range z {
			z[i] = lr.bias
		}
		for j, w := range lr.weights {
			axpy(z, w, X.Col(j))
		}
		gradB := 0.0
		loss := 0.0
		for i := range z {
			p := sigmoid(z[i])
			e[i] = p - float64(y[i])
			gradB += e[i]
			// Cross-entropy with clamping for the stopping criterion; a NaN
			// p stays NaN.
			pc := p
			if pc < 1e-12 {
				pc = 1e-12
			}
			if pc > 1-1e-12 {
				pc = 1 - 1e-12
			}
			if y[i] == 1 {
				loss -= math.Log(pc)
			} else {
				loss -= math.Log(1 - pc)
			}
		}
		for j := 0; j < d; j++ {
			col := X.Col(j)
			g := 0.0
			for i, v := range col {
				g += e[i] * v
			}
			gradW[j] = g
		}
		norm := 0.0
		for j := range gradW {
			gradW[j] = gradW[j]/float64(n) + lr.Lambda*lr.weights[j]
			norm += gradW[j] * gradW[j]
		}
		gradB /= float64(n)
		norm += gradB * gradB
		if math.Sqrt(norm) < lr.Tol {
			break
		}
		loss /= float64(n)
		// Backtracking-flavoured step control: shrink when the loss rises.
		if loss > prevLoss {
			step *= 0.5
			if step < 1e-6 {
				break
			}
		}
		prevLoss = loss
		for j := range lr.weights {
			lr.weights[j] -= step * gradW[j]
		}
		lr.bias -= step * gradB
	}
	lr.fitted = true
	return nil
}

// PredictProba implements Classifier.
func (lr *Logistic) PredictProba(X *Matrix) []float64 {
	out := make([]float64, X.Rows())
	if !lr.fitted {
		return out
	}
	d := X.Cols()
	if d > len(lr.weights) {
		d = len(lr.weights)
	}
	z := make([]float64, X.Rows())
	for i := range z {
		z[i] = lr.bias
	}
	for j, w := range lr.weights[:d] {
		axpy(z, w, X.Col(j))
	}
	for i, v := range z {
		out[i] = sigmoid(v)
	}
	return out
}

// Weights exposes the learned coefficients (used by recursive feature
// elimination in the featselect package).
func (lr *Logistic) Weights() []float64 {
	return append([]float64(nil), lr.weights...)
}

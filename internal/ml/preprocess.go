package ml

import (
	"fmt"
	"math"
)

// Imputer replaces NaN cells with per-column training means (sklearn's
// SimpleImputer(strategy="mean") analogue). On the columnar matrix each
// column's statistics come from one contiguous scan.
type Imputer struct {
	means []float64
	fit   bool
}

// Fit learns column means over non-NaN entries. A column that is entirely
// NaN imputes to zero.
func (im *Imputer) Fit(X *Matrix) error {
	if X == nil || X.Rows() == 0 {
		return fmt.Errorf("ml: imputer fit on empty matrix")
	}
	d := X.Cols()
	im.means = make([]float64, d)
	for j := 0; j < d; j++ {
		sum, count := 0.0, 0
		for _, v := range X.Col(j) {
			if !math.IsNaN(v) {
				sum += v
				count++
			}
		}
		if count > 0 {
			im.means[j] = sum / float64(count)
		}
	}
	im.fit = true
	return nil
}

// Transform writes X with NaNs replaced by the learned means into dst,
// resized to X's shape (a new matrix when dst is nil), and returns it.
func (im *Imputer) Transform(X, dst *Matrix) *Matrix {
	if dst == nil {
		dst = &Matrix{}
	}
	dst.Resize(X.Rows(), X.Cols())
	copy(dst.data, X.data)
	for j := 0; j < dst.Cols() && j < len(im.means); j++ {
		col := dst.Col(j)
		m := im.means[j]
		for i, v := range col {
			if math.IsNaN(v) {
				col[i] = m
			}
		}
	}
	return dst
}

// Scaler standardizes columns to zero mean and unit variance using training
// statistics (sklearn's StandardScaler analogue). Constant columns pass
// through as zeros.
type Scaler struct {
	means []float64
	stds  []float64
	fit   bool
}

// Fit learns per-column mean and standard deviation.
func (sc *Scaler) Fit(X *Matrix) error {
	if X == nil || X.Rows() == 0 {
		return fmt.Errorf("ml: scaler fit on empty matrix")
	}
	d := X.Cols()
	n := float64(X.Rows())
	sc.means = make([]float64, d)
	sc.stds = make([]float64, d)
	for j := 0; j < d; j++ {
		col := X.Col(j)
		for _, v := range col {
			sc.means[j] += v
		}
		sc.means[j] /= n
		for _, v := range col {
			dv := v - sc.means[j]
			sc.stds[j] += dv * dv
		}
		sc.stds[j] = math.Sqrt(sc.stds[j] / n)
	}
	sc.fit = true
	return nil
}

// standardize rescales X's columns in place with the learned statistics.
func (sc *Scaler) standardize(X *Matrix) {
	for j := 0; j < X.Cols(); j++ {
		col := X.Col(j)
		if j < len(sc.stds) && sc.stds[j] > 0 {
			m, s := sc.means[j], sc.stds[j]
			for i, v := range col {
				col[i] = (v - m) / s
			}
		} else {
			for i := range col {
				col[i] = 0
			}
		}
	}
}

// Pipeline wraps a classifier with mean imputation and (for the models that
// need it) standardization — the evaluation protocol the paper applies
// uniformly to every method's feature output. It never writes the caller's
// matrix, and copies it only when preprocessing has something to write: with
// no NaN to fill and no scaling the model reads the caller's matrix (no model
// writes its input), otherwise one copy is imputed and standardized in place.
// Scoring takes that copy's storage from the caller, so a scorer that works
// through its rows block by block reuses one buffer for every block.
type Pipeline struct {
	model   Classifier
	imputer Imputer
	scaler  Scaler
	scale   bool
}

// NewPipeline builds the preprocessing pipeline for a model. Linear and
// neural models are standardized; tree and NB models only need imputation.
func NewPipeline(model Classifier) *Pipeline {
	scale := model.Name() == "LR" || model.Name() == "DNN"
	return &Pipeline{model: model, scale: scale}
}

// imputed returns X itself when preprocessing will write nothing into it,
// and otherwise X imputed into buf (a new matrix when buf is nil), which
// scaling may then write in place.
func (p *Pipeline) imputed(X, buf *Matrix) *Matrix {
	if !p.scale && !X.hasNaN() {
		return X
	}
	return p.imputer.Transform(X, buf)
}

// Fit trains the preprocessing and the model. Like sklearn's input
// validation, it rejects infinite values: imputation repairs NaN, but a
// feature containing ±Inf (e.g. an unguarded divide-by-zero from a code
// generation tool) fails the fit — the failure mode the paper reports for
// CAAFE on the Diabetes dataset.
func (p *Pipeline) Fit(X *Matrix, y []int) error {
	if err := p.imputer.Fit(X); err != nil {
		return err
	}
	Xi := p.imputed(X, nil)
	// Scan each contiguous column for ±Inf, then report the row-major-first
	// occurrence (smallest row, then column) — same coordinates the old
	// row-major loop produced, without its strided traversal.
	infRow, infCol := -1, -1
	for j := 0; j < Xi.Cols(); j++ {
		for i, v := range Xi.Col(j) {
			if infRow >= 0 && i > infRow {
				break
			}
			if math.IsInf(v, 0) {
				if infRow < 0 || i < infRow || (i == infRow && j < infCol) {
					infRow, infCol = i, j
				}
				break
			}
		}
	}
	if infRow >= 0 {
		return fmt.Errorf("ml: input contains infinity at row %d column %d", infRow, infCol)
	}
	if p.scale {
		if err := p.scaler.Fit(Xi); err != nil {
			return err
		}
		p.scaler.standardize(Xi)
	}
	return p.model.Fit(Xi, y)
}

// PredictProba applies the fitted preprocessing and scores the rows. When
// preprocessing has something to write it writes into buf, resized to X's
// shape (a new matrix when buf is nil). The scores do not refer to buf, so
// the caller may reuse it at once.
func (p *Pipeline) PredictProba(X, buf *Matrix) []float64 {
	Xi := p.imputed(X, buf)
	if p.scale {
		p.scaler.standardize(Xi)
	}
	return p.model.PredictProba(Xi)
}

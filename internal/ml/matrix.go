package ml

import "math"

// Matrix is a dense feature matrix stored as one flat column-major
// []float64: column j occupies data[j*rows : (j+1)*rows]. Column-major
// layout is the compute-friendly orientation for every model in this
// package — tree split finding, imputation, scaling and the linear models
// all sweep whole columns — and it keeps each column contiguous so the hot
// loops are linear scans instead of pointer-chasing across row slices.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Resize makes m a rows×cols matrix over its own storage, which it grows
// only when too small: a caller that fills one matrix block after block
// allocates once. The values are unspecified until written.
func (m *Matrix) Resize(rows, cols int) {
	if n := rows * cols; cap(m.data) < n {
		m.data = make([]float64, n)
	} else {
		m.data = m.data[:n]
	}
	m.rows, m.cols = rows, cols
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns (features).
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[j*m.rows+i] }

// Col returns column j as a contiguous view into the underlying storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) Col(j int) []float64 { return m.data[j*m.rows : (j+1)*m.rows] }

// ColCopy copies column j into buf (grown as needed) and returns it — for
// consumers that must mutate or sort a column without touching the matrix,
// like the histogram bin builder.
func (m *Matrix) ColCopy(j int, buf []float64) []float64 {
	if cap(buf) < m.rows {
		buf = make([]float64, m.rows)
	}
	buf = buf[:m.rows]
	copy(buf, m.Col(j))
	return buf
}

// Row gathers row i into buf (grown as needed) and returns it. The gather is
// strided; models that are inherently row-oriented (the MLP's per-sample
// SGD) use it with a reused buffer.
func (m *Matrix) Row(i int, buf []float64) []float64 {
	if cap(buf) < m.cols {
		buf = make([]float64, m.cols)
	}
	buf = buf[:m.cols]
	for j := 0; j < m.cols; j++ {
		buf[j] = m.data[j*m.rows+i]
	}
	return buf
}

// hasNaN reports whether any element is NaN.
func (m *Matrix) hasNaN() bool {
	for _, v := range m.data {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

// TakeRows returns a new matrix holding the given rows, in order (rows may
// repeat, as in bootstrap sampling). Each output column is gathered from one
// contiguous input column.
func (m *Matrix) TakeRows(idx []int) *Matrix {
	out := NewMatrix(len(idx), m.cols)
	for j := 0; j < m.cols; j++ {
		src := m.Col(j)
		dst := out.Col(j)
		for k, i := range idx {
			dst[k] = src[i]
		}
	}
	return out
}

// SelectCols returns a new matrix holding the given columns, in order. With
// column-major storage this is a sequence of contiguous copies.
func (m *Matrix) SelectCols(cols []int) *Matrix {
	out := NewMatrix(m.rows, len(cols))
	for k, j := range cols {
		copy(out.Col(k), m.Col(j))
	}
	return out
}

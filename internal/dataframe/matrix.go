package dataframe

import (
	"fmt"
	"math"

	"smartfeat/internal/ml"
)

// Gatherer reads rows of a fixed list of columns into flat column-major
// ml.Matrix values, the compute format of the ml package. A dense numeric
// column is read as it is. A column with codes is read in place through a
// table from code to value, so no full-height float copy is built: a
// categorical column's codes become the numbers Factorize gives them, by
// first appearance among the non-null rows, and a one-hot indicator's
// become its 0/1 on/off table. A null becomes NaN for the pipeline's
// imputer to repair. The numbering is worked out once, when the Gatherer
// is made, so a caller that reads a frame block by block pays for it once.
type Gatherer struct {
	cols []*Series
	// tables[j] maps column j's codes to the values gathered; it is nil
	// for a dense numeric column.
	tables [][]float64
}

// Gatherer returns a gatherer of the named columns, in order.
func (f *Frame) Gatherer(names []string) (*Gatherer, error) {
	g := &Gatherer{cols: make([]*Series, len(names)), tables: make([][]float64, len(names))}
	for j, n := range names {
		c := f.Column(n)
		if c == nil {
			return nil, fmt.Errorf("dataframe: no column %q", n)
		}
		g.cols[j] = c
		switch {
		case c.Kind == Categorical:
			g.tables[j] = c.factorizedCodes()
		case c.on != nil:
			g.tables[j] = c.on
		}
	}
	return g, nil
}

// factorizedCodes maps each dictionary code of categorical series s to the
// number Factorize gives its level: the order in which the non-null rows
// first hold it. A code no non-null row holds is never read and maps to
// NaN. The scan stops once every level has been seen.
func (s *Series) factorizedCodes() []float64 {
	out := make([]float64, len(s.levels))
	for i := range out {
		out[i] = math.NaN()
	}
	next := 0
	for i, code := range s.codes {
		if next == len(out) {
			break
		}
		if (s.Null == nil || !s.Null[i]) && math.IsNaN(out[code]) {
			out[code] = float64(next)
			next++
		}
	}
	return out
}

// Gather writes the given rows, in order, into dst, resized to
// len(rows)×columns (a new matrix when dst is nil), and returns it. Rows may
// repeat, and an empty row set gives a matrix with no rows. Each value is
// written once, straight from its series, so a caller that trains on a
// sample or scores in blocks never builds the full-height matrix.
func (g *Gatherer) Gather(rows []int, dst *ml.Matrix) *ml.Matrix {
	if dst == nil {
		dst = &ml.Matrix{}
	}
	dst.Resize(len(rows), len(g.cols))
	for j, c := range g.cols {
		out := dst.Col(j)
		if table := g.tables[j]; table != nil {
			for k, i := range rows {
				if c.Null != nil && c.Null[i] {
					out[k] = math.NaN()
				} else {
					out[k] = table[c.codes[i]]
				}
			}
			continue
		}
		src := c.nums
		if c.Null == nil {
			for k, i := range rows {
				out[k] = src[i]
			}
			continue
		}
		for k, i := range rows {
			if c.Null[i] {
				out[k] = math.NaN()
			} else {
				out[k] = src[i]
			}
		}
	}
	return dst
}

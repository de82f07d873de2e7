package dataframe

import (
	"fmt"
	"math"

	"smartfeat/internal/ml"
)

// ColMatrix gathers the given rows of the named numeric columns, in order,
// into a flat column-major ml.Matrix, the compute format of the ml package.
// Rows may repeat, and an empty row set gives a matrix with no rows. Each
// value is written once, straight from its series; a null becomes NaN for
// the pipeline's imputer to repair. A caller that trains on a sample gathers
// just that sample and never builds the full-height matrix first.
func (f *Frame) ColMatrix(names []string, rows []int) (*ml.Matrix, error) {
	cols := make([]*Series, len(names))
	for j, n := range names {
		c := f.Column(n)
		if c == nil {
			return nil, fmt.Errorf("dataframe: no column %q", n)
		}
		if c.Kind != Numeric {
			return nil, fmt.Errorf("dataframe: column %q is not numeric", n)
		}
		cols[j] = c
	}
	out := ml.NewMatrix(len(rows), len(names))
	for j, c := range cols {
		dst, src := out.Col(j), c.Nums
		if c.Null == nil {
			for k, i := range rows {
				dst[k] = src[i]
			}
			continue
		}
		for k, i := range rows {
			if c.Null[i] {
				dst[k] = math.NaN()
			} else {
				dst[k] = src[i]
			}
		}
	}
	return out, nil
}

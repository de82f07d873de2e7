package fm_test

import (
	"testing"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
	"smartfeat/internal/fm"
)

// BenchmarkSeriesColumn takes the agenda summary of every column an agenda
// over Bank shows: its own columns, a derived high-cardinality ratio, and
// the one-hot indicators of its categorical columns at SMARTFEAT's cap of
// 10 levels.
func BenchmarkSeriesColumn(b *testing.B) {
	d, err := datasets.Load("Bank", 2024)
	if err != nil {
		b.Fatal(err)
	}
	f := d.Frame
	dur, eur := f.Column("Duration").Floats(), f.Column("Euribor3m").Floats()
	ratio := make([]float64, f.Len())
	for i := range ratio {
		ratio[i] = dur[i] / (eur[i] + 1)
	}
	cols := []*dataframe.Series{dataframe.NewNumeric("duration_per_euribor", ratio)}
	for _, name := range f.Names() {
		c := f.Column(name)
		cols = append(cols, c)
		if c.Kind == dataframe.Categorical {
			dums, err := f.GetDummies(name, 10)
			if err != nil {
				b.Fatal(err)
			}
			cols = append(cols, dums...)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cols {
			summary = fm.SeriesColumn(c, "")
		}
	}
}

// summary keeps BenchmarkSeriesColumn's results live.
var summary fm.AgendaColumn

package dataframe_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
)

// TestIndicatorsMatchDense holds GetDummies' indicators, which read their
// source's codes, to dense float64 columns built the old way from the
// source's strings: on every dataset, for a source without and with nulls,
// with no cap, with a cap that folds levels into "=other", after a Take
// that drops a level and after DropNA. Gathered values, the summary
// readers, group-by and WriteCSV bytes must match bit for bit, and a Take
// must leave a source's indicators sharing one codes slice.
func TestIndicatorsMatchDense(t *testing.T) {
	for _, dname := range datasets.Names() {
		d, err := datasets.Load(dname, 2024)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(dname, func(t *testing.T) {
			name, ref := indicatorSource(d.Frame)
			masked := strCol{vals: ref.vals, null: make([]bool, len(ref.vals))}
			for i := range masked.null {
				masked.null[i] = i%7 == 3
			}
			for _, src := range []struct {
				label string
				ref   strCol
			}{{"plain", ref}, {"masked", masked}} {
				for _, maxLevels := range []int{0, 3, 10} {
					t.Run(fmt.Sprintf("%s/%s/max%d", src.label, name, maxLevels), func(t *testing.T) {
						ind, dense := indicatorFrames(t, name, src.ref, maxLevels)
						compareFrames(t, ind, dense)
						rows := dropRarest(src.ref)
						taken := ind.Take(rows)
						compareFrames(t, taken, dense.Take(rows))
						checkShared(t, taken)
						if src.ref.null != nil {
							clean := ind.DropNA()
							compareFrames(t, clean, dense.DropNA())
							checkShared(t, clean)
						}
					})
				}
			}
		})
	}
}

// indicatorSource picks a dataset's categorical column with the most
// levels, or, when it has none, renders the numeric column with the fewest
// distinct values (at least two) as strings.
func indicatorSource(f *dataframe.Frame) (string, strCol) {
	var best *dataframe.Series
	better := func(c *dataframe.Series) bool {
		switch {
		case best == nil:
			return c.Kind == dataframe.Categorical || c.Cardinality() >= 2
		case c.Kind != best.Kind:
			return c.Kind == dataframe.Categorical
		case c.Kind == dataframe.Categorical:
			return c.Cardinality() > best.Cardinality()
		default:
			return c.Cardinality() >= 2 && c.Cardinality() < best.Cardinality()
		}
	}
	for _, n := range f.Names() {
		if c := f.Column(n); better(c) {
			best = c
		}
	}
	ref := strCol{vals: make([]string, best.Len())}
	for i := range ref.vals {
		ref.vals[i] = best.ValueString(i)
	}
	return best.Name, ref
}

// indicatorFrames returns two frames over the same rows: the source column
// followed by its GetDummies indicators, and the source followed by dense
// numeric columns holding the values the indicators must read as.
func indicatorFrames(t *testing.T, name string, ref strCol, maxLevels int) (ind, dense *dataframe.Frame) {
	t.Helper()
	src := dataframe.NewCategorical(name, ref.vals)
	src.Null = ref.null
	ind, dense = dataframe.New(), dataframe.New()
	if err := ind.Add(src); err != nil {
		t.Fatal(err)
	}
	if err := dense.Add(src); err != nil {
		t.Fatal(err)
	}
	dums, err := ind.GetDummies(name, maxLevels)
	if err != nil {
		t.Fatal(err)
	}
	names, cols := ref.dummies(name, maxLevels)
	if len(dums) != len(names) {
		t.Fatalf("GetDummies(%d) gave %d columns, want %d", maxLevels, len(dums), len(names))
	}
	for j, d := range dums {
		if d.Name != names[j] || d.Kind != dataframe.Numeric {
			t.Fatalf("GetDummies(%d) column %d is %q (%v), want numeric %q", maxLevels, j, d.Name, d.Kind, names[j])
		}
		if err := ind.Add(d); err != nil {
			t.Fatal(err)
		}
		if err := dense.AddNumeric(names[j], cols[j]); err != nil {
			t.Fatal(err)
		}
	}
	return ind, dense
}

// dropRarest keeps every row but those of ref's rarest level, reversed,
// with the first kept row repeated.
func dropRarest(ref strCol) []int {
	freq := ref.counts()
	rarest := ref.levels()[0]
	for v, n := range freq {
		if n < freq[rarest] || n == freq[rarest] && v < rarest {
			rarest = v
		}
	}
	var rows []int
	for i := len(ref.vals) - 1; i >= 0; i-- {
		if ref.isNull(i) || ref.vals[i] != rarest {
			rows = append(rows, i)
		}
	}
	return append(rows, rows[0])
}

// compareFrames holds every reader of got's columns to want's, bit for bit.
func compareFrames(t *testing.T, got, want *dataframe.Frame) {
	t.Helper()
	names := want.Names()
	if g := got.Names(); len(g) != len(names) {
		t.Fatalf("columns %q, want %q", g, names)
	}
	bits := math.Float64bits
	for _, n := range names[1:] {
		g, w := got.Column(n), want.Column(n)
		if i, ok := sameBits(g.Floats(), w.Floats()); !ok {
			t.Fatalf("%s: Floats row %d", n, i)
		}
		for i := 0; i < w.Len(); i++ {
			if bits(g.Float(i)) != bits(w.Float(i)) || g.IsNull(i) != w.IsNull(i) {
				t.Fatalf("%s: Float/IsNull row %d", n, i)
			}
		}
		glo, ghi := g.Bounds()
		wlo, whi := w.Bounds()
		if bits(g.Mean()) != bits(w.Mean()) || bits(g.Std()) != bits(w.Std()) ||
			bits(glo) != bits(wlo) || bits(ghi) != bits(whi) {
			t.Fatalf("%s: Mean/Std/Bounds %v %v %v %v, want %v %v %v %v", n, g.Mean(), g.Std(), glo, ghi, w.Mean(), w.Std(), wlo, whi)
		}
		if g.Cardinality() != w.Cardinality() || g.IsConstant() != w.IsConstant() || g.NullCount() != w.NullCount() {
			t.Fatalf("%s: Cardinality/IsConstant/NullCount %d %v %d, want %d %v %d", n,
				g.Cardinality(), g.IsConstant(), g.NullCount(), w.Cardinality(), w.IsConstant(), w.NullCount())
		}
	}
	// Group the first indicator's values by the last, and the rows by
	// each: the group keys and the aggregated values read the indicators.
	first, last := names[1], names[len(names)-1]
	for _, q := range [][2]string{{last, first}, {first, last}} {
		gv, gerr := got.GroupByTransform([]string{q[0]}, q[1], dataframe.AggMean)
		wv, werr := want.GroupByTransform([]string{q[0]}, q[1], dataframe.AggMean)
		if gerr != nil || werr != nil {
			t.Fatal(gerr, werr)
		}
		if i, ok := sameBits(gv, wv); !ok {
			t.Fatalf("GroupByTransform(%s, %s) row %d", q[0], q[1], i)
		}
	}
	rows := make([]int, 0, 2*want.Len())
	for i := 0; i < want.Len(); i++ {
		rows = append(rows, i, (i*7919)%want.Len())
	}
	gg, err := got.Gatherer(names)
	if err != nil {
		t.Fatal(err)
	}
	wg, err := want.Gatherer(names)
	if err != nil {
		t.Fatal(err)
	}
	gm, wm := gg.Gather(rows, nil), wg.Gather(rows, nil)
	for j := range names {
		if i, ok := sameBits(gm.Col(j), wm.Col(j)); !ok {
			t.Fatalf("Gather %s row %d", names[j], i)
		}
	}
	var gcsv, wcsv bytes.Buffer
	if err := got.WriteCSV(&gcsv); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteCSV(&wcsv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gcsv.Bytes(), wcsv.Bytes()) {
		t.Fatal("WriteCSV bytes differ")
	}
}

// checkShared holds every column of f, the source first and then its
// indicators, to one codes slice and one Null mask.
func checkShared(t *testing.T, f *dataframe.Frame) {
	t.Helper()
	names := f.Names()
	src := f.Column(names[0])
	for _, n := range names[1:] {
		if !dataframe.SharesStorage(src, f.Column(n)) {
			t.Fatalf("%s does not share %s's codes and Null mask", n, names[0])
		}
	}
}

// BenchmarkGetDummies one-hot encodes every categorical column of the Bank
// frame (41,189 rows, eight categorical columns) at SMARTFEAT's default cap
// of 10 levels. Its B/op is
// what the indicators cost beside their source.
func BenchmarkGetDummies(b *testing.B) {
	d, err := datasets.Load("Bank", 2024)
	if err != nil {
		b.Fatal(err)
	}
	var cats []string
	for _, n := range d.Frame.Names() {
		if d.Frame.Column(n).Kind == dataframe.Categorical {
			cats = append(cats, n)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range cats {
			if _, err := d.Frame.GetDummies(n, 10); err != nil {
				b.Fatal(err)
			}
		}
	}
}

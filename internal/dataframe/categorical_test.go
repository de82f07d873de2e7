package dataframe_test

import (
	"bytes"
	"encoding/csv"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
)

// strCol is a categorical column as a plain []string with a null mask: the
// layout the dictionary codes replaced, and the reference every categorical
// reader is held to below.
type strCol struct {
	vals []string
	null []bool // nil: no nulls
}

func (r strCol) isNull(i int) bool { return r.null != nil && r.null[i] }

// value is what a reader renders for row i: nothing for a null.
func (r strCol) value(i int) string {
	if r.isNull(i) {
		return ""
	}
	return r.vals[i]
}

func (r strCol) take(rows []int) strCol {
	out := strCol{vals: make([]string, len(rows))}
	if r.null != nil {
		out.null = make([]bool, len(rows))
	}
	for j, i := range rows {
		out.vals[j] = r.vals[i]
		if r.null != nil {
			out.null[j] = r.null[i]
		}
	}
	return out
}

// counts maps each level a non-null row holds to its number of rows.
func (r strCol) counts() map[string]int {
	freq := make(map[string]int)
	for i, v := range r.vals {
		if !r.isNull(i) {
			freq[v]++
		}
	}
	return freq
}

func (r strCol) levels() []string {
	var out []string
	for v := range r.counts() {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// dummies is GetDummies over strings: column names and 0/1 values, NaN on
// a null row, levels by (count desc, level asc), the rest folded.
func (r strCol) dummies(input string, maxLevels int) ([]string, [][]float64) {
	freq := r.counts()
	levels := r.levels()
	sort.SliceStable(levels, func(i, j int) bool { return freq[levels[i]] > freq[levels[j]] })
	folded := maxLevels > 0 && len(levels) > maxLevels
	if folded {
		levels = levels[:maxLevels]
	}
	names := make([]string, 0, len(levels)+1)
	for _, v := range levels {
		s := strings.NewReplacer("=", "_", ",", "_", "\n", "_").Replace(v)
		if s == "" {
			s = "_empty_"
		}
		names = append(names, input+"="+s)
	}
	if folded {
		names = append(names, input+"=other")
	}
	column := make(map[string]int, len(levels))
	for j, l := range levels {
		column[l] = j
	}
	cols := make([][]float64, len(names))
	for j := range cols {
		cols[j] = make([]float64, len(r.vals))
	}
	for i, v := range r.vals {
		j, kept := column[v]
		switch {
		case r.isNull(i):
			for _, col := range cols {
				col[i] = math.NaN()
			}
		case kept:
			cols[j][i] = 1
		default:
			cols[len(levels)][i] = 1
		}
	}
	return names, cols
}

// factorize numbers the levels by first appearance in a non-null row.
func (r strCol) factorize() ([]float64, []string) {
	code := make(map[string]int)
	var levels []string
	out := make([]float64, len(r.vals))
	for i, v := range r.vals {
		if r.isNull(i) {
			out[i] = math.NaN()
			continue
		}
		if _, ok := code[v]; !ok {
			code[v] = len(levels)
			levels = append(levels, v)
		}
		out[i] = float64(code[v])
	}
	return out, levels
}

// groupSums sums each row's index over its group of equal values, nulls
// forming one group of their own.
func (r strCol) groupSums() []float64 {
	key := func(i int) string {
		if r.isNull(i) {
			return "\x00null"
		}
		return "s:" + r.vals[i]
	}
	sum := make(map[string]float64)
	for i := range r.vals {
		sum[key(i)] += float64(i)
	}
	out := make([]float64, len(r.vals))
	for i := range out {
		out[i] = sum[key(i)]
	}
	return out
}

// checkColumn holds every categorical reader of column name in f to ref.
func checkColumn(t *testing.T, f *dataframe.Frame, name string, ref strCol) {
	t.Helper()
	c := f.Column(name)
	if c.Kind != dataframe.Categorical || c.Len() != len(ref.vals) {
		t.Fatalf("%s: kind %v, %d rows; want categorical, %d", name, c.Kind, c.Len(), len(ref.vals))
	}
	for i := range ref.vals {
		if c.IsNull(i) != ref.isNull(i) {
			t.Fatalf("%s row %d: IsNull %v, want %v", name, i, c.IsNull(i), ref.isNull(i))
		}
		if got := c.ValueString(i); got != ref.value(i) {
			t.Fatalf("%s row %d: ValueString %q, want %q", name, i, got, ref.value(i))
		}
		if got := c.AppendValue([]byte("<"), i); string(got) != "<"+ref.value(i) {
			t.Fatalf("%s row %d: AppendValue %q, want %q", name, i, got, "<"+ref.value(i))
		}
	}
	levels := ref.levels()
	if got := c.Levels(); !slices.Equal(got, levels) {
		t.Fatalf("%s: Levels %q, want %q", name, got, levels)
	}
	if got := c.Cardinality(); got != len(levels) {
		t.Fatalf("%s: Cardinality %d, want %d", name, got, len(levels))
	}
	if got := c.IsConstant(); got != (len(levels) <= 1) {
		t.Fatalf("%s: IsConstant %v with %d levels", name, got, len(levels))
	}
	for _, maxLevels := range []int{0, 2} {
		dums, err := f.GetDummies(name, maxLevels)
		if err != nil {
			t.Fatal(err)
		}
		names, cols := ref.dummies(name, maxLevels)
		if len(dums) != len(names) {
			t.Fatalf("%s: GetDummies(%d) gave %d columns, want %d", name, maxLevels, len(dums), len(names))
		}
		for j, d := range dums {
			if d.Name != names[j] {
				t.Fatalf("%s: GetDummies(%d) column %d is %q, want %q", name, maxLevels, j, d.Name, names[j])
			}
			if i, ok := sameBits(d.Floats(), cols[j]); !ok {
				t.Fatalf("%s: GetDummies(%d) %s row %d", name, maxLevels, d.Name, i)
			}
		}
	}
	codes, flevels, err := f.Factorize(name)
	if err != nil {
		t.Fatal(err)
	}
	wantCodes, wantLevels := ref.factorize()
	if i, ok := sameBits(codes.Floats(), wantCodes); !ok {
		t.Fatalf("%s: Factorize row %d", name, i)
	}
	if !slices.Equal(flevels, wantLevels) {
		t.Fatalf("%s: Factorize levels %q, want %q", name, flevels, wantLevels)
	}
	mapping := make(map[string]float64)
	for j, l := range levels {
		if j%2 == 0 { // every other level is missing from the table
			mapping[l] = float64(j) + 0.5
		}
	}
	mapped, err := f.MapValues(name, mapping)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.vals {
		want, ok := mapping[ref.vals[i]]
		if !ok || ref.isNull(i) {
			want = math.NaN()
		}
		if math.Float64bits(mapped[i]) != math.Float64bits(want) {
			t.Fatalf("%s: MapValues row %d = %v, want %v", name, i, mapped[i], want)
		}
	}
	g := dataframe.New()
	index := make([]float64, c.Len())
	for i := range index {
		index[i] = float64(i)
	}
	if err := g.Add(c); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNumeric("row", index); err != nil {
		t.Fatal(err)
	}
	sums, err := g.GroupByTransform([]string{name}, "row", dataframe.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := sameBits(sums, ref.groupSums()); !ok {
		t.Fatalf("%s: GroupByTransform row %d", name, i)
	}
}

// checkFrame holds every categorical column of f to refs, f's rows to a
// serialization built from the references, and f's CSV to one written
// from them; the CSV must then read back and write again byte for byte.
func checkFrame(t *testing.T, f *dataframe.Frame, refs map[string]strCol) {
	t.Helper()
	for name, ref := range refs {
		checkColumn(t, f, name, ref)
	}
	cell := func(name string, i int) string {
		if ref, ok := refs[name]; ok {
			return ref.value(i)
		}
		return f.Column(name).ValueString(i)
	}
	var want bytes.Buffer
	w := csv.NewWriter(&want)
	_ = w.Write(f.Names())
	for i := 0; i < f.Len(); i++ {
		row := make([]string, f.Width())
		parts := make([]string, f.Width())
		for j, name := range f.Names() {
			row[j] = cell(name, i)
			parts[j] = name + ": " + row[j]
		}
		_ = w.Write(row)
		if got, want := f.SerializeRow(i), strings.Join(parts, ", "); got != want {
			t.Fatalf("SerializeRow(%d) = %q, want %q", i, got, want)
		}
	}
	w.Flush()
	var once bytes.Buffer
	if err := f.WriteCSV(&once); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(once.Bytes(), want.Bytes()) {
		t.Fatal("WriteCSV differs from the CSV of the reference strings")
	}
	back, err := dataframe.ReadCSV(bytes.NewReader(once.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var twice bytes.Buffer
	if err := back.WriteCSV(&twice); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(once.Bytes(), twice.Bytes()) {
		t.Fatal("WriteCSV → ReadCSV → WriteCSV is not byte-stable")
	}
}

// TestCategoricalMatchesStrings holds the dictionary-coded categorical
// columns to the plain-string layout they replaced: every categorical
// column of the eight datasets, a Take that drops a level (which stays in
// the shared level table), and a frame with masked null rows, one level
// held only by masked rows and an empty string both masked and not.
func TestCategoricalMatchesStrings(t *testing.T) {
	for _, dname := range datasets.Names() {
		d, err := datasets.Load(dname, 2024)
		if err != nil {
			t.Fatal(err)
		}
		f := d.Frame
		// The datasets' strings are read once through ValueString, which
		// TestGeneratorsKeepTheirBytes pins; the other readers are held
		// to those strings.
		refs := make(map[string]strCol)
		var cats []string
		for _, name := range f.Names() {
			c := f.Column(name)
			if c.Kind != dataframe.Categorical {
				continue
			}
			ref := strCol{vals: make([]string, c.Len())}
			for i := range ref.vals {
				ref.vals[i] = c.ValueString(i)
			}
			refs[name] = ref
			cats = append(cats, name)
		}
		t.Run(dname, func(t *testing.T) { checkFrame(t, f, refs) })
		if len(cats) == 0 {
			continue
		}
		// Drop the rarest level of the first categorical column, and keep
		// every third remaining row, reversed.
		first := refs[cats[0]]
		freq := first.counts()
		rarest := first.levels()[0]
		for v, n := range freq {
			if n < freq[rarest] || n == freq[rarest] && v < rarest {
				rarest = v
			}
		}
		var rows []int
		for i := len(first.vals) - 1; i >= 0; i-- {
			if first.vals[i] != rarest && i%3 == 0 {
				rows = append(rows, i)
			}
		}
		sub := f.Take(rows)
		subRefs := make(map[string]strCol, len(refs))
		for name, ref := range refs {
			subRefs[name] = ref.take(rows)
		}
		t.Run(dname+"/take", func(t *testing.T) {
			for _, l := range sub.Column(cats[0]).Levels() {
				if l == rarest {
					t.Fatalf("Take dropped level %q, yet Levels lists it", rarest)
				}
			}
			checkFrame(t, sub, subRefs)
		})
	}

	vals := []string{"a", "b", "", "a", "only-masked", "c", "", "b", "only-masked", "a=b,c"}
	null := []bool{false, true, true, false, true, false, false, false, true, false}
	masked := dataframe.NewCategorical("masked", vals)
	masked.Null = append([]bool(nil), null...)
	plain := []string{"x", "x", "x", "x", "x", "x", "x", "x", "x", "x"}
	f := dataframe.New()
	for _, err := range []error{
		f.Add(masked),
		f.Add(dataframe.NewCategorical("plain", plain)),
		f.AddNumeric("n", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	refs := map[string]strCol{"masked": {vals: vals, null: null}, "plain": {vals: plain}}
	t.Run("masked", func(t *testing.T) { checkFrame(t, f, refs) })
	t.Run("masked/take", func(t *testing.T) {
		rows := []int{9, 4, 1, 0, 4, 6, 2}
		checkFrame(t, f.Take(rows), map[string]strCol{"masked": refs["masked"].take(rows), "plain": refs["plain"].take(rows)})
	})
	t.Run("masked/dropna", func(t *testing.T) {
		var kept []int
		for i, isNull := range null {
			if !isNull {
				kept = append(kept, i)
			}
		}
		g := f.DropNA()
		if g.Column("masked").NullCount() != 0 {
			t.Fatal("DropNA kept a null row")
		}
		checkFrame(t, g, map[string]strCol{"masked": refs["masked"].take(kept), "plain": refs["plain"].take(kept)})
	})
}

// TestCodesRejectInvalid checks the guard of the codes constructor: every
// reader compares rows by code, so a level listed twice or a code without
// a level would corrupt them.
func TestCodesRejectInvalid(t *testing.T) {
	for _, tc := range []struct {
		levels []string
		codes  []uint32
		ok     bool
	}{
		{[]string{"a", "b"}, []uint32{0, 1, 1}, true},
		{[]string{"a", "b", "unused"}, []uint32{1, 1}, true},
		{nil, nil, true},
		{[]string{"a", "b"}, []uint32{0, 2}, false},
		{[]string{"a", "b", "a"}, []uint32{0, 1}, false},
		{nil, []uint32{0}, false},
	} {
		err := dataframe.New().AddCodes("c", tc.levels, tc.codes)
		if (err == nil) != tc.ok {
			t.Errorf("AddCodes(%q, %v) = %v, want ok %v", tc.levels, tc.codes, err, tc.ok)
		}
	}
}

// factorizedGather is the gather evaluation made before it read codes in
// place: FactorizeAll, then each numeric column's rows, a null read as NaN.
func factorizedGather(f *dataframe.Frame, names []string, rows []int) [][]float64 {
	g := f.FactorizeAll()
	out := make([][]float64, len(names))
	for j, name := range names {
		c := g.Column(name)
		out[j] = make([]float64, len(rows))
		for k, i := range rows {
			if c.Null != nil && c.Null[i] {
				out[j][k] = math.NaN()
			} else {
				out[j][k] = c.Float(i)
			}
		}
	}
	return out
}

// TestGatherMatchesFactorizeAll holds the gather, which reads categorical
// codes in place, to FactorizeAll followed by a numeric gather, bit for
// bit, on every dataset: all rows and a sorted sample of the loaded frame
// (whose null rows are kept), a frame whose first categorical column has
// nulls on the rows that first hold two of its levels, and a Take that
// drops every row of that column's first level, whose level table then
// lists a level no row holds.
func TestGatherMatchesFactorizeAll(t *testing.T) {
	for _, name := range datasets.Names() {
		d, err := datasets.Load(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		f := d.Frame
		n := f.Len()
		var cat string
		for _, c := range f.Names() {
			if f.Column(c).Kind == dataframe.Categorical {
				cat = c
				break
			}
		}
		frames := map[string]*dataframe.Frame{"loaded": f}
		if cat != "" {
			src := f.Column(cat)
			vals := make([]string, n)
			for i := range vals {
				vals[i] = src.ValueString(i)
			}
			masked := dataframe.NewCategorical(cat, vals)
			seen := map[string]bool{}
			for i := 0; i < n && len(seen) < 2; i++ {
				if !src.IsNull(i) && !seen[vals[i]] {
					seen[vals[i]] = true
					masked.SetNull(i)
				}
			}
			g := f.Clone()
			g.Drop(cat)
			if err := g.Add(masked); err != nil {
				t.Fatal(err)
			}
			frames["masked"] = g
			var keep []int
			for i := 0; i < n; i++ {
				if src.IsNull(i) || vals[i] != vals[0] {
					keep = append(keep, i)
				}
			}
			frames["take"] = f.Take(keep)
		}
		for kind, g := range frames {
			names := g.Names()
			all := make([]int, g.Len())
			for i := range all {
				all[i] = i
			}
			var sample []int
			for i := 0; i < g.Len(); i += 3 {
				sample = append(sample, i)
			}
			gt, err := g.Gatherer(names)
			if err != nil {
				t.Fatal(err)
			}
			for _, rows := range [][]int{all, sample} {
				got := gt.Gather(rows, nil)
				want := factorizedGather(g, names, rows)
				for j := range names {
					for k := range rows {
						if gb, wb := math.Float64bits(got.At(k, j)), math.Float64bits(want[j][k]); gb != wb {
							t.Fatalf("%s %s: column %q row %d gathers %x, want %x", name, kind, names[j], rows[k], gb, wb)
						}
					}
				}
			}
		}
	}
}

// BenchmarkFactorizeAll replaces every categorical column of the Bank frame
// (41,189 rows, eight categorical columns) by its codes, the cleaning step
// CAAFE and AutoFeat run first.
func BenchmarkFactorizeAll(b *testing.B) {
	d, err := datasets.Load("Bank", 2024)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := d.Frame.FactorizeAll(); g.Width() != d.Frame.Width() {
			b.Fatalf("FactorizeAll gave %d columns", g.Width())
		}
	}
}

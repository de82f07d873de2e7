package dataframe

import (
	"encoding/binary"
	"math"
	"strconv"
	"testing"
)

// appendKey appends row i's string group-by key to buf, namespaced by kind
// so that the numeric 1 and the string "1" do not collide: the key
// group-by built for every row before it numbered integer atoms.
func (s *Series) appendKey(buf []byte, i int) []byte {
	if s.IsNull(i) {
		return append(buf, "\x00null"...)
	}
	if s.Kind == Numeric {
		buf = append(buf, 'n', ':')
		return strconv.AppendFloat(buf, s.Float(i), 'g', -1, 64)
	}
	buf = append(buf, 's', ':')
	return append(buf, s.levels[s.codes[i]]...)
}

// refGroupIDs is the string-key groupIDs that integer atoms replaced: each
// row's key joins its columns' appendKey with '\x1f', and a map numbers the
// keys by first appearance.
func refGroupIDs(f *Frame, groupCols []string) (ids []int, keys []string) {
	cols := make([]*Series, len(groupCols))
	for j, n := range groupCols {
		cols[j] = f.Column(n)
	}
	ids = make([]int, f.Len())
	index := make(map[string]int)
	buf := make([]byte, 0, 64)
	for i := range ids {
		buf = buf[:0]
		for j, c := range cols {
			if j > 0 {
				buf = append(buf, '\x1f')
			}
			buf = c.appendKey(buf, i)
		}
		id, ok := index[string(buf)]
		if !ok {
			id = len(keys)
			keys = append(keys, string(buf))
			index[keys[id]] = id
		}
		ids[i] = id
	}
	return ids, keys
}

// refGroupByTransform is GroupByTransform over refGroupIDs.
func refGroupByTransform(f *Frame, groupCols []string, aggCol string, fn AggFunc) []float64 {
	ref, keys := refGroupIDs(f, groupCols)
	ids := make([]int32, len(ref))
	for i, id := range ref {
		ids[i] = int32(id)
	}
	vals, start := groupValues(f.Column(aggCol), ids, len(keys))
	out := make([]float64, len(ids))
	for i, g := range ids {
		if start[g] == start[g+1] {
			out[i] = math.NaN()
		} else {
			out[i] = aggregate(fn, vals[start[g]:start[g+1]])
		}
	}
	return out
}

// groupFuzzValues are the numeric keys the atoms' edge cases turn on: NaN
// payloads (null either way), ±0 (apart, as %g prints them), ±Inf,
// subnormals, and 1 and 0, which a categorical column also holds as text.
var groupFuzzValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 2.5, 1e300, math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022,
	math.NaN(), math.Float64frombits(0x7ff8000000000000), math.Float64frombits(0xfff8000000000001),
	math.Float64frombits(0x7ff0000000000001),
}

// groupFuzzLevels are a categorical column's levels: "1" and "0" read like
// numbers, "n:1" like a numeric key.
var groupFuzzLevels = []string{"a", "b", "1", "0", "n:1"}

// groupFuzzReader turns fuzz bytes into a frame: a byte picks one of a
// table's entries, or, at 0xf0 and above, the next eight bytes are a
// float's raw bits. With the bytes used up it cycles through the table.
type groupFuzzReader struct {
	data []byte
	k    int
}

func (r *groupFuzzReader) byte() int {
	r.k++
	if len(r.data) == 0 {
		return r.k
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

func (r *groupFuzzReader) float() float64 {
	b := r.byte()
	if b >= 0xf0 && len(r.data) >= 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
		r.data = r.data[8:]
		return v
	}
	return groupFuzzValues[b%len(groupFuzzValues)]
}

// FuzzGroupByTransform holds GroupByTransform, and the ids under it, to the
// string-key reference bit for bit. A frame holds a numeric column of any
// float bits, one of the value table with a Null mask over non-NaN values,
// a categorical column with nulls and its GetDummies indicators (capped,
// so "=other" shows). Every column is a key alone, three column pairs are
// keys, and every aggregation runs over a numeric column.
func FuzzGroupByTransform(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0, 1, 2, 3})
	f.Add([]byte{40, 0xf0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 2, 0xf1, 1, 0, 0, 0, 0, 0, 0, 0x80, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &groupFuzzReader{data: data}
		rows := 1 + r.byte()%48
		x := make([]float64, rows)
		y := make([]float64, rows)
		levels := make([]string, rows)
		for i := 0; i < rows; i++ {
			x[i] = r.float()
			y[i] = groupFuzzValues[r.byte()%len(groupFuzzValues)]
			levels[i] = groupFuzzLevels[r.byte()%len(groupFuzzLevels)]
		}
		ys := NewNumeric("y", y)
		cs := NewCategorical("c", levels)
		for i := 0; i < rows; i++ {
			if m := r.byte(); m%4 == 0 {
				ys.setNull(i) // masked, its value kept
			} else if m%4 == 1 {
				cs.setNull(i)
			}
		}
		frame := New()
		for _, err := range []error{frame.AddNumeric("x", x), frame.Add(ys), frame.Add(cs)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		dums, err := frame.GetDummies("c", 1+r.byte()%4)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dums {
			if err := frame.Add(d); err != nil {
				t.Fatal(err)
			}
		}
		names := frame.Names()
		keys := make([][]string, 0, len(names)+3)
		for _, n := range names {
			keys = append(keys, []string{n})
		}
		for range 3 {
			keys = append(keys, []string{names[r.byte()%len(names)], names[r.byte()%len(names)]})
		}
		numeric := []string{"x", "y"}
		if len(dums) > 0 { // none when every row of c is null
			numeric = append(numeric, dums[r.byte()%len(dums)].Name)
		}
		for _, key := range keys {
			ids, groups, err := frame.groupIDs(key)
			if err != nil {
				t.Fatal(err)
			}
			want, wantKeys := refGroupIDs(frame, key)
			if groups != len(wantKeys) {
				t.Fatalf("%v: %d groups, the string keys make %d", key, groups, len(wantKeys))
			}
			for i := range want {
				if int(ids[i]) != want[i] {
					t.Fatalf("%v: row %d is group %d, the string keys say %d", key, i, ids[i], want[i])
				}
			}
			agg := numeric[r.byte()%len(numeric)]
			for _, fn := range []AggFunc{AggMean, AggSum, AggMax, AggMin, AggCount, AggStd, AggMedian} {
				got, err := frame.GroupByTransform(key, agg, fn)
				if err != nil {
					t.Fatal(err)
				}
				ref := refGroupByTransform(frame, key, agg, fn)
				for i := range ref {
					if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("GroupByTransform(%v, %s, %s) row %d = %v (%#x), the string keys give %v (%#x)",
							key, agg, fn, i, got[i], math.Float64bits(got[i]), ref[i], math.Float64bits(ref[i]))
					}
				}
			}
		}
	})
}

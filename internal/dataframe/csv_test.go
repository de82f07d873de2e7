package dataframe

import (
	"strings"
	"testing"
)

const sampleCSV = `Sex,Age,AgeOfCar,Make,Claim,City,Safe
M,21,6,Honda,1,SF,0
F,35,2,Toyota,0,LA,1
M,42,8,Ford,0,SEA,1
F,22,14,Chevrolet,1,SF,0
M,45,3,BMW,0,SEA,1
F,56,5,Volkswagen,0,LA,1
`

func TestReadCSVTypes(t *testing.T) {
	f, err := ReadCSVString(sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 6 || f.Width() != 7 {
		t.Fatalf("got %dx%d", f.Len(), f.Width())
	}
	if f.Column("Age").Kind != Numeric {
		t.Fatal("Age should infer numeric")
	}
	if f.Column("Make").Kind != Categorical {
		t.Fatal("Make should infer categorical")
	}
	if f.Column("Age").Float(2) != 42 {
		t.Fatal("numeric parse wrong")
	}
	if f.Column("City").ValueString(0) != "SF" {
		t.Fatal("string parse wrong")
	}
}

func TestReadCSVNulls(t *testing.T) {
	f, err := ReadCSVString("a,b\n1,x\n,y\n3,\n")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Column("a").IsNull(1) {
		t.Fatal("empty numeric cell should be null")
	}
	if !f.Column("b").IsNull(2) {
		t.Fatal("empty string cell should be null")
	}
	if f.Column("a").Kind != Numeric {
		t.Fatal("column with some empties should still be numeric")
	}
}

func TestReadCSVAllEmptyColumn(t *testing.T) {
	f, err := ReadCSVString("a,b\n,x\n,y\n")
	if err != nil {
		t.Fatal(err)
	}
	// A column with no values cannot be confirmed numeric → categorical nulls.
	if f.Column("a").Kind != Categorical {
		t.Fatalf("all-empty column kind = %v", f.Column("a").Kind)
	}
	if f.Column("a").NullCount() != 2 {
		t.Fatal("all cells should be null")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSVString(""); err == nil {
		t.Fatal("empty csv should error")
	}
	if _, err := ReadCSVString("a,b\n1\n"); err == nil {
		t.Fatal("ragged csv should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f, err := ReadCSVString(sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ReadCSVString(writeCSV(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != f.Len() || g.Width() != f.Width() {
		t.Fatal("round trip changed shape")
	}
	for _, name := range f.Names() {
		a, b := f.Column(name), g.Column(name)
		if a.Kind != b.Kind {
			t.Fatalf("column %s kind changed", name)
		}
		for i := 0; i < f.Len(); i++ {
			if a.ValueString(i) != b.ValueString(i) {
				t.Fatalf("column %s row %d changed: %q vs %q", name, i, a.ValueString(i), b.ValueString(i))
			}
		}
	}
}

// writeCSV prints f through WriteCSV.
func writeCSV(t *testing.T, f *Frame) string {
	t.Helper()
	var b strings.Builder
	if err := f.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestSerializeRow(t *testing.T) {
	f, err := ReadCSVString(sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	s := f.SerializeRow(0)
	if !strings.Contains(s, "Sex: M") || !strings.Contains(s, "Age: 21") {
		t.Fatalf("serialized row missing fields: %s", s)
	}
	if !strings.Contains(s, ", ") {
		t.Fatal("fields should be comma separated")
	}
}

// FuzzReadCSV feeds arbitrary text to the CSV reader. It must never panic,
// and a frame it accepts must print as CSV that reads back to the same
// printed text: after one cycle (which trims cells and fixes each column's
// kind and number format) printing and re-parsing is stable.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		sampleCSV,
		"a,b\n1,x\n,y\n3,\n",
		"a,b\n,x\n,y\n",
		"",
		"a,b\n1\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		fr, err := ReadCSVString(in)
		if err != nil {
			return
		}
		once := writeCSV(t, fr)
		again, err := ReadCSVString(once)
		if err != nil {
			t.Fatalf("printed frame does not re-parse: %v\n%q", err, once)
		}
		if twice := writeCSV(t, again); twice != once {
			t.Fatalf("print/parse cycle not stable:\nonce  %q\ntwice %q", once, twice)
		}
	})
}

// BenchmarkSerializeRow renders one mixed Bank-like row (eight string and
// ten numeric cells, integral and decimal) as the row-level prompts carry it.
func BenchmarkSerializeRow(b *testing.B) {
	f := New()
	for _, c := range [][2]string{
		{"Job", "blue-collar"}, {"Marital", "married"}, {"Education", "university.degree"},
		{"CreditDefault", "no"}, {"HousingLoan", "yes"}, {"PersonalLoan", "no"},
		{"ContactType", "cellular"}, {"PrevOutcome", "nonexistent"},
	} {
		if err := f.Add(NewCategorical(c[0], []string{c[1]})); err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"Age", 41}, {"Duration", 227}, {"Campaign", 2}, {"Pdays", 999}, {"Previous", 0},
		{"EmpVarRate", -1.8}, {"ConsPriceIdx", 92.893}, {"ConsConfIdx", -46.2},
		{"Euribor3m", 1.313}, {"Subscribed", 0},
	} {
		if err := f.AddNumeric(c.name, []float64{c.v}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serializedRow = f.SerializeRow(0)
	}
}

// serializedRow keeps BenchmarkSerializeRow's result live.
var serializedRow string

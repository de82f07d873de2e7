package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/fm"
)

// The fmt-based renderings the append path replaced, kept verbatim: every
// row prompt (and so every cache and recording key) must stay byte for byte
// what they produced.

func valueStringFmt(s *dataframe.Series, i int) string {
	if s.IsNull(i) {
		return ""
	}
	if s.Kind == dataframe.Numeric {
		v := s.Float(i)
		if v == math.Trunc(v) && math.Abs(v) < 1e15 {
			return fmt.Sprintf("%d", int64(v))
		}
		return fmt.Sprintf("%g", v)
	}
	return s.ValueString(i)
}

func serializeRowFmt(f *dataframe.Frame, i int) string {
	parts := make([]string, 0, f.Width())
	for _, name := range f.Names() {
		c := f.Column(name)
		parts = append(parts, fmt.Sprintf("%s: %s", c.Name, valueStringFmt(c, i)))
	}
	return strings.Join(parts, ", ")
}

func rowPromptFmt(feature, serializedRow string) string {
	return fmt.Sprintf(
		"You are assisting with automated feature engineering for a tabular dataset.\n"+
			"Task: %s\n"+
			"New feature: %s\n"+
			"Row: %s, %s: ?\n"+
			"Provide only the value for the masked attribute %q.\n",
		fm.TaskCompleteRow, feature, serializedRow, feature, feature)
}

// checkRowRenderings compares every rendering of every row of f, and the
// row prompt for each feature name, with the fmt-based originals.
func checkRowRenderings(t *testing.T, f *dataframe.Frame, features []string) {
	t.Helper()
	for i := 0; i < f.Len(); i++ {
		for _, name := range f.Names() {
			c := f.Column(name)
			if got, want := c.ValueString(i), valueStringFmt(c, i); got != want {
				t.Fatalf("ValueString(%d) of %q = %q, want %q", i, c.Name, got, want)
			}
		}
		row := f.SerializeRow(i)
		if want := serializeRowFmt(f, i); row != want {
			t.Fatalf("SerializeRow(%d) = %q, want %q", i, row, want)
		}
		for _, feature := range features {
			if got, want := rowPrompt(feature, f, i), rowPromptFmt(feature, row); got != want {
				t.Fatalf("rowPrompt(%q, row %d) = %q, want %q", feature, i, got, want)
			}
		}
	}
}

func TestAppendValueMatchesFmt(t *testing.T) {
	below := math.Nextafter(1e15, 0)
	nums := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		below, -below, 1e15 - 1, -(1e15 - 1), 1e15, -1e15,
		5e-324, 1e21, 0.1, 3, 3.5, -2.5, 1e300, 9.3e18, -123456789,
	}
	strs := make([]string, len(nums))
	for i := range strs {
		strs[i] = []string{"SF", "", "a \"quoted\" city", "tab\there", "bad\xff\xfeutf8"}[i%5]
	}
	f := dataframe.New()
	if err := f.AddNumeric("Age", nums); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(dataframe.NewCategorical("City \"q\"\t\xff", strs)); err != nil {
		t.Fatal(err)
	}
	nullNums := make([]float64, len(nums))
	nullStrs := make([]string, len(nums))
	for i := range nums {
		nullNums[i] = float64(i)
		nullStrs[i] = "Honda"
	}
	null := dataframe.NewCategorical("Make", nullStrs)
	null.Null = make([]bool, len(nums))
	for i := range nums {
		null.Null[i] = i%2 == 0 // null string cells
	}
	nullNum := dataframe.NewNumeric("Claims", nullNums)
	nullNum.Null = null.Null // null numeric cells over ordinary values
	for _, s := range []*dataframe.Series{null, nullNum} {
		if err := f.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	checkRowRenderings(t, f, []string{
		"Population_Density_City", `Pop "Density"`, "tab\there", "bad\xff\xfeutf8",
		"ünïcode", "back\\slash\n", "",
	})
}

// FuzzSerializeRow checks the same equality over arbitrary numeric values,
// string cells, column names and feature names.
func FuzzSerializeRow(f *testing.F) {
	f.Add(21.0, 3.5, "SF", "Age", "Population_Density", false)
	f.Add(math.Inf(-1), 1e15, "bad\xff", "a\"b", "tab\tq\"", true)
	f.Add(math.Copysign(0, -1), 5e-324, "", "ünï", "", false)
	f.Fuzz(func(t *testing.T, a, b float64, s, col, feature string, nullStr bool) {
		fr := dataframe.New()
		if err := fr.AddNumeric(col, []float64{a, b}); err != nil {
			return // the name is empty
		}
		cat := dataframe.NewCategorical(col+"_s", []string{s, s + "x"})
		if nullStr {
			cat.Null = []bool{true, false}
		}
		if err := fr.Add(cat); err != nil {
			t.Fatal(err)
		}
		checkRowRenderings(t, fr, []string{feature})
	})
}

package a

import "testing"

// The gate ignores test files: what only this file reaches is dead.
func TestOnlyHere(t *testing.T) {
	var s Store
	o := Options{Verbose: true, Depth: 1}
	l := Limits{Rate: 5, Spread: 1}
	if (Agenda{}).Describe() == "" || s.Len() != 0 || !o.Verbose || Depth(2) != 2 || clamp(l.Rate+l.Spread+o.Depth) != 7 {
		t.Fatal("fixture")
	}
}

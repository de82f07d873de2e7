package a

import "testing"

// The gate ignores test files: what only this file reaches is dead.
func TestOnlyHere(t *testing.T) {
	var s Store
	o := Options{Verbose: true}
	if (Agenda{}).Describe() == "" || s.Len() != 0 || !o.Verbose || Depth(2) != 2 {
		t.Fatal("fixture")
	}
}

package deadexports

import (
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestFixture runs the scan over testdata/fixture, a module whose every
// declaration is a case the gate must flag or accept (see its comments), and
// checks exactly the expected keys come back: the dead surface, plus each
// kind of exception the gate refuses.
func TestFixture(t *testing.T) {
	kept := map[string]string{
		"a.Options.Verbose": "suppressed: an exception hides dead surface",
		"a.Point.X":         "refused: non-test code sets it",
		"a.Gone":            "refused: declared nowhere",
	}
	found, err := scan(filepath.Join("testdata", "fixture"), kept)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.key)
	}
	sort.Strings(got)
	want := []string{
		"a.Agenda.Describe", // hidden behind Frame.Describe
		"a.Depth",           // only calls itself
		"a.Gone",            // stale exception
		"a.Limits.Rate",     // only a default fill of a parameter sets it
		"a.Limits.Spread",   // only a default fill on a copy of the receiver sets it
		"a.Options.Depth",   // set by the test only
		"a.Plan.Depth",      // copied from a test-only field
		"a.Point.X",         // exception for live surface
		"a.Record.Skip",     // json:"-": never decoded
		"a.Step.Depth",      // copied from a copy of a test-only field
		"a.Store.Len",       // not a sort.Interface
		"a.Store.items",     // unexported, never set
		"a.clamp",           // unexported, called by the test only
	}
	if !reflect.DeepEqual(got, want) {
		for _, f := range found {
			t.Logf("%s: %s", f.pos, f.msg)
		}
		t.Fatalf("fixture findings = %v, want %v", got, want)
	}
	delete(kept, "a.Options.Verbose")
	if found, err = scan(filepath.Join("testdata", "fixture"), kept); err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		if f.key == "a.Options.Verbose" {
			return
		}
	}
	t.Fatal("a field set only by the fixture's test is not flagged")
}

package grid

import (
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"testing"
)

// FuzzSpecArgs pins the resume hint's contract: for every spec Validate
// accepts, its Args parse back through Register to the same canonical spec.
// Models has no flag, so it is left out of the comparison.
func FuzzSpecArgs(f *testing.F) {
	for _, body := range []string{
		`{"table": 4, "quick": true, "datasets": ["Diabetes", "Tennis"]}`,
		`{"all": true, "seed": -7, "workers": -3}`,
		`{"table": 3}`,
		`{"figure": 2, "descriptions": true}`,
		`{"efficiency": true, "methods": ["SMARTFEAT", "CAAFE"]}`,
		`{"table": 5, "methods": ["Initial AUC"], "models": ["LR"]}`,
		`{"table": 4, "datasets": ["West Nile Virus", "Bank"], "methods": ["AutoFeat", "Initial AUC"]}`,
		`{"table": 4, "datasets": [], "methods": []}`,
		`{"figure": 1, "seed": 9223372036854775807, "workers": 1}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		if json.Unmarshal(body, &spec) != nil || spec.Validate() != nil {
			return
		}
		spec.Models = nil
		args := spec.Args()
		fs := flag.NewFlagSet("spec", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var got Spec
		got.Register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%s: Args %q do not parse: %v", body, args, err)
		}
		if fs.NArg() != 0 {
			t.Fatalf("%s: Args %q leave positional arguments %q", body, args, fs.Args())
		}
		if want := spec.Canonical(); !reflect.DeepEqual(got.Canonical(), want) {
			t.Fatalf("%s: Args %q parse to %+v, want %+v", body, args, got.Canonical(), want)
		}
	})
}

package fmgate

import (
	"context"
	"strings"
	"testing"
)

// TestReportStableOrdering pins Report's ordering: roles lexically sorted,
// pool backends sorted by name regardless of construction order, and
// consecutive reports byte-identical.
func TestReportStableOrdering(t *testing.T) {
	p, err := NewPool(&countingModel{}, []Backend{
		{Name: "c"}, {Name: "a"}, {Name: "b"},
	}, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gen := New(p, Options{Role: "generator"})
	sel := New(&countingModel{}, Options{Role: "selector"})
	r := NewRouter().Route(RoleSelector, sel).Route(RoleGenerator, gen)

	ctx := context.Background()
	for _, prompt := range []string{"p1", "p2", "p3"} {
		if _, err := gen.Complete(ctx, prompt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sel.Complete(ctx, "s1"); err != nil {
		t.Fatal(err)
	}

	rep := r.Report()
	if rep != r.Report() {
		t.Fatalf("consecutive reports differ:\n%s\nvs\n%s", rep, r.Report())
	}
	// Roles: generator block before selector block (lexical order).
	gi := strings.Index(rep, "generator gateway:")
	si := strings.Index(rep, "selector  gateway:")
	if gi < 0 || si < 0 || gi > si {
		t.Errorf("role ordering wrong in report:\n%s", rep)
	}
	// Backends: a, b, c regardless of pool construction order (c, a, b).
	ai := strings.Index(rep, "backend a[")
	bi := strings.Index(rep, "backend b[")
	ci := strings.Index(rep, "backend c[")
	if ai < 0 || bi < 0 || ci < 0 || !(ai < bi && bi < ci) {
		t.Errorf("backend ordering not sorted by name in report:\n%s", rep)
	}
}

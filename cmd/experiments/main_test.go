package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"smartfeat/internal/experiments"
	"smartfeat/internal/grid"
	"smartfeat/internal/obs"
)

// TestDefaultRunFailFastDistinguishesSkipped drives the default path (no
// run directory, recording or restriction flags) over a grid with one bad
// dataset: the first dispatched cell fails, the unstarted ones are skipped,
// the partial tables still print with distinct '!' and '?' markers, and the
// error is an *experiments.RunError that names each cell once.
func TestDefaultRunFailFastDistinguishesSkipped(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.Workers = 1 // deterministic schedule: the bad dataset's CAAFE cell fails first
	names := []string{"NoSuchDataset", "Diabetes"}
	var out bytes.Buffer
	err := runGrid(context.Background(), &out, grid.Selection{Table: 4}, names, nil, cfg,
		gridOptions{prof: obs.NewProfile(nil)})

	var runErr *experiments.RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("want *experiments.RunError, got %T: %v", err, err)
	}
	if len(runErr.Failed) != 1 || runErr.Failed[0].Dataset != "NoSuchDataset" || runErr.Failed[0].Method != experiments.MethodCAAFE {
		t.Fatalf("failed cells = %v", runErr.Failed)
	}
	if want := len(names)*len(experiments.ComparisonMethods()) - 1; len(runErr.Skipped) != want {
		t.Fatalf("skipped %d cells, want %d: %v", len(runErr.Skipped), want, runErr.Skipped)
	}
	for _, s := range runErr.Skipped {
		if s == "NoSuchDataset × "+experiments.MethodCAAFE {
			t.Fatalf("the failed cell is also listed as skipped: %v", runErr.Skipped)
		}
	}
	if msg := err.Error(); !strings.Contains(msg, "failed") || !strings.Contains(msg, "skipped") {
		t.Fatalf("error collapses skipped into failed: %s", msg)
	}

	tables := out.String()
	for _, title := range []string{"Table 4:", "Table 5:"} {
		if !strings.Contains(tables, title) {
			t.Fatalf("partial tables dropped on failure, no %q:\n%s", title, tables)
		}
	}
	for _, line := range strings.Split(tables, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case experiments.MethodCAAFE:
			if len(fields) != 3 || fields[1] != "!" || fields[2] != "?" {
				t.Fatalf("CAAFE row should mark failed then skipped: %q", line)
			}
		case experiments.MethodSmartfeat, experiments.MethodFeaturetools, experiments.MethodAutoFeat:
			if len(fields) != 3 || fields[1] != "?" || fields[2] != "?" {
				t.Fatalf("%s row should mark both cells skipped: %q", fields[0], line)
			}
		}
	}
}

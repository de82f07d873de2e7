package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
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
	err := runGrid(context.Background(), &out, grid.Spec{Table: 4, Datasets: names}, cfg,
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

// TestUsageErrors pins the CLI's selection check: a selection the job spec
// refuses exits 2 with a one-line error before any cell runs, so no grid
// progress or tally line appears and nothing reaches stdout.
func TestUsageErrors(t *testing.T) {
	// No row may create its run directory: each usage error is found before
	// the trace, metrics and disk-cache setup.
	dir := filepath.Join(t.TempDir(), "run")
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-quick", "-table", "9"}, "table 9 does not exist"},
		{[]string{"-quick", "-figure", "3"}, "figure 3 does not exist"},
		{[]string{"-quick"}, "empty selection"},
		{[]string{"-quick", "-table", "4", "-datasets", "Diabetes,"}, `unknown dataset ""`},
		{[]string{"-quick", "-table", "4", "-methods", "NoSuch"}, `unknown method "NoSuch"`},
		{[]string{"-quick", "-table", "4", "-datasets", "Diabetes,Diabetes"}, `dataset "Diabetes" is listed twice`},
		{[]string{"-quick", "-table", "4", "-methods", "SMARTFEAT, SMARTFEAT"}, `method "SMARTFEAT" is listed twice`},
		{[]string{"-quick", "-table", "4", "-trace", "-run-dir", dir, "-resume", dir}, "drop -run-dir"},
		{[]string{"-quick", "-table", "4", "-worker", "w1"}, "-worker needs -run-dir"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		msg := stderr.String()
		if code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", tc.args, code, msg)
		}
		if !strings.HasPrefix(msg, "experiments: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.wantErr) {
			t.Errorf("%q: stderr %q, want one line mentioning %q", tc.args, msg, tc.wantErr)
		}
		if strings.Contains(msg, "grid:") || stdout.Len() != 0 {
			t.Errorf("%q: cells ran before the usage error (stdout %q, stderr %q)", tc.args, stdout.String(), msg)
		}
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a usage error left the run directory behind (stat: %v)", err)
	}
}

package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"smartfeat/internal/experiments"
	"smartfeat/internal/grid"
)

// TestReplayGridShard pins cross-tool replay: a grid's Tennis__SMARTFEAT
// shard, recorded through grid.Runner, replays through the CLI — with the
// grid's seed, budget and error rate — to the CSV a live CLI run writes.
func TestReplayGridShard(t *testing.T) {
	cfg := experiments.QuickConfig()
	dir := t.TempDir()
	fmDir := filepath.Join(dir, "fm")

	stores, err := grid.OpenStores(cfg, fmDir, "")
	if err != nil {
		t.Fatal(err)
	}
	runner := &grid.Runner{Config: cfg, Stores: stores}
	res, err := runner.Run(context.Background(), grid.ComparisonPlan([]string{"Tennis"}, []string{experiments.MethodSmartfeat}))
	if cerr := stores.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counts()[grid.StatusCompleted]; got != 1 {
		t.Fatalf("recording run completed %d cells, want 1: %+v", got, res.Outcomes)
	}

	csv := func(name, replay string) []byte {
		t.Helper()
		out := filepath.Join(dir, name)
		o := cliOptions{
			dataset:       "Tennis",
			model:         "RF",
			budget:        cfg.SamplingBudget,
			seed:          cfg.Seed,
			errorRate:     cfg.FMErrorRate,
			fmConcurrency: 8,
			fmReplay:      replay,
			out:           out,
		}
		if err := run(context.Background(), o); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	live := csv("live.csv", "")
	replayed := csv("replayed.csv", fmDir)
	if !bytes.Equal(live, replayed) {
		t.Fatalf("replaying the grid shard diverged from the live CLI run:\nlive:\n%s\nreplayed:\n%s", live, replayed)
	}
}

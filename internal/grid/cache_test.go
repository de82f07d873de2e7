package grid

import (
	"context"
	"sync"
	"testing"

	"smartfeat/internal/fmgate"
)

// TestGridDiskTierServesPeerRecording pins the tentpole acceptance contract
// of the tiered completion cache: worker A pays for a grid once (recording
// every completion into a shared shard directory); worker B then runs the
// same grid in a fresh run directory with only the disk tier pointed at A's
// shards — zero upstream calls, zero simulated spend, and tables
// byte-identical to A's. Error injection stays on: recorded upstream errors
// are part of the stream the disk tier must reproduce faithfully.
func TestGridDiskTierServesPeerRecording(t *testing.T) {
	names := []string{"Diabetes"}
	cfg := tinyConfig()
	cfg.Workers = 1
	plan := ComparisonPlan(names, nil)
	refAvg, refMed, fmDir, _ := recordTinyGrid(t, names, cfg, plan)

	dc, err := fmgate.OpenDiskCache(fmDir, fmgate.DiskCacheOptions{
		ConfigHash: cfg.Fingerprint(), Worker: "wB",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	cfgB := cfg
	cfgB.FMDiskCache = dc
	rB := &Runner{Config: cfgB, Dir: t.TempDir(), Worker: "wB", LeaseTTL: workerTTL}
	resB, err := rB.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if c := resB.Counts(); c[StatusCompleted] != len(plan) {
		t.Fatalf("worker B did not complete the grid: %v", c)
	}
	for _, c := range plan {
		a, ok := resB.Artifact(c)
		if !ok {
			t.Fatalf("no artifact for %s", c.Key())
		}
		if m := a.Method; m != nil && (m.FMUsage.Calls != 0 || m.FMUsage.SimCostUSD != 0) {
			t.Fatalf("%s reached upstream: calls=%d cost=%f — disk tier should have served everything",
				c.Key(), m.FMUsage.Calls, m.FMUsage.SimCostUSD)
		}
	}
	avg, median := comparisonTables(t, resB, names, cfg)
	if avg.String() != refAvg || median.String() != refMed {
		t.Fatalf("disk-tier tables differ from recording run:\n%s\nvs\n%s", avg, refAvg)
	}
}

// TestGridConcurrentWorkersSharedCacheDir runs two lease-claiming workers
// draining one run directory while both record into — and read through —
// one shared shard directory, each with its own DiskCache. The partitioned
// cells must fold into tables byte-identical to the sequential reference.
// Error injection is disabled here: with partial disk coverage a cross-cell
// disk hit skips the upstream call mid-cell, and skipping an error-injection
// RNG draw would legitimately shift later outcomes (the full-coverage cache
// check in internal/e2e keeps injection on; this test pins the live
// record-and-share path).
func TestGridConcurrentWorkersSharedCacheDir(t *testing.T) {
	names := []string{"Diabetes"}
	cfg := tinyConfig()
	cfg.Workers = 1
	cfg.FMErrorRate = 0
	plan := ComparisonPlan(names, nil)
	refAvg, refMed, _, _ := recordTinyGrid(t, names, cfg, plan)

	fmDir := t.TempDir()
	dir := t.TempDir()
	const workers = 2
	results := make([]*RunResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			worker := string(rune('a' + i))
			stores, err := fmgate.NewRecordStoreSet(fmDir, fmgate.StoreSetManifest{
				ConfigHash: cfg.Fingerprint(), Seed: cfg.Seed, Budget: cfg.SamplingBudget,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer stores.Close()
			dc, err := fmgate.OpenDiskCache(fmDir, fmgate.DiskCacheOptions{
				ConfigHash: cfg.Fingerprint(), Worker: worker,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer dc.Close()
			cfgW := cfg
			cfgW.FMDiskCache = dc
			r := &Runner{Config: cfgW, Dir: dir, Stores: stores, Worker: worker, LeaseTTL: workerTTL}
			results[i], errs[i] = r.Run(context.Background(), plan)
		}(i)
	}
	wg.Wait()

	executed := 0
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		c := results[i].Counts()
		executed += c[StatusCompleted]
		if c[StatusCompleted]+c[StatusResumed] != len(plan) {
			t.Fatalf("worker %d did not resolve the full grid: %v", i, c)
		}
		avg, median := comparisonTables(t, results[i], names, cfg)
		if avg.String() != refAvg || median.String() != refMed {
			t.Fatalf("worker %d tables differ from sequential run:\n%s\nvs\n%s", i, avg, refAvg)
		}
	}
	if executed != len(plan) {
		t.Fatalf("cells executed across workers = %d, want %d (each exactly once)", executed, len(plan))
	}
}

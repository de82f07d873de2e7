package grid

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// mkRun synthesizes a run directory under root with the given config hash
// and UpdatedAt stamp.
func mkRun(t *testing.T, root, name, hash string, updated time.Time) string {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	m := newManifest(name, hash, 1)
	if err := m.save(dir); err != nil {
		t.Fatal(err)
	}
	// save stamps UpdatedAt with now; rewrite it to the synthetic time.
	m.UpdatedAt = updated.UTC().Format(time.RFC3339)
	raw := "{\n  \"version\": 1,\n  \"name\": \"" + name + "\",\n  \"config_hash\": \"" + hash + "\",\n  \"seed\": 1,\n  \"updated_at\": \"" + m.UpdatedAt + "\",\n  \"cells\": {}\n}\n"
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// mkLease plants a lease file in a run dir with the given age.
func mkLease(t *testing.T, runDir, name string, age time.Duration) string {
	t.Helper()
	dir := LeasesDir(runDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(`{"worker":"w","pid":1,"acquired_at":"2026-01-01T00:00:00Z"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	when := time.Now().Add(-age)
	if err := os.Chtimes(path, when, when); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompactRetention pins the keep-last-N-per-config-hash policy.
func TestCompactRetention(t *testing.T) {
	root := t.TempDir()
	now := time.Now()
	oldA := mkRun(t, root, "a-old", "hash-A", now.Add(-3*time.Hour))
	midA := mkRun(t, root, "a-mid", "hash-A", now.Add(-2*time.Hour))
	newA := mkRun(t, root, "a-new", "hash-A", now.Add(-time.Hour))
	soleB := mkRun(t, root, "b-sole", "hash-B", now.Add(-10*time.Hour))
	// A non-run directory (an FM recording, say) must be left alone.
	fmDir := filepath.Join(root, "fm-shards")
	if err := os.MkdirAll(fmDir, 0o755); err != nil {
		t.Fatal(err)
	}

	rep, err := Compact(root, CompactOptions{KeepN: 2, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovedRuns) != 1 || rep.RemovedRuns[0] != oldA {
		t.Fatalf("removed = %v, want [%s]", rep.RemovedRuns, oldA)
	}
	for _, kept := range []string{midA, newA, soleB, fmDir} {
		if _, err := os.Stat(kept); err != nil {
			t.Fatalf("%s should have been kept: %v", kept, err)
		}
	}
	if _, err := os.Stat(oldA); !os.IsNotExist(err) {
		t.Fatalf("%s should have been removed", oldA)
	}
	// keepN below 1 is a caller bug.
	if _, err := Compact(root, CompactOptions{}); err == nil {
		t.Fatal("keepN=0 accepted")
	}
}

// TestCompactSweepsOrphanedLeases pins the lease sweep inside kept runs:
// completed-artifact leases, stale leases and reap tombstones go; live
// leases of unfinished cells stay.
func TestCompactSweepsOrphanedLeases(t *testing.T) {
	root := t.TempDir()
	run := mkRun(t, root, "run", "hash-A", time.Now())

	// An artifact for cell X: its lease is an orphan no matter how fresh.
	if err := os.WriteFile(filepath.Join(run, "Tennis__SMARTFEAT.json"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	doneLease := mkLease(t, run, "Tennis__SMARTFEAT.lease", 0)
	staleLease := mkLease(t, run, "Tennis__CAAFE.lease", time.Hour)
	liveLease := mkLease(t, run, "Tennis__AutoFeat.lease", 0)
	tomb := mkLease(t, run, "Tennis__CAAFE.lease.reap-w9", 0)

	rep, err := Compact(root, CompactOptions{KeepN: 1, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{doneLease: true, staleLease: true, tomb: true}
	if len(rep.RemovedLeases) != len(want) {
		t.Fatalf("removed leases = %v, want %v", rep.RemovedLeases, want)
	}
	for _, p := range rep.RemovedLeases {
		if !want[p] {
			t.Fatalf("unexpected sweep of %s", p)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s reported swept but still present", p)
		}
	}
	if _, err := os.Stat(liveLease); err != nil {
		t.Fatalf("live lease swept: %v", err)
	}
}

// mkCacheDir synthesizes a completion-cache shard directory (an fmgate
// store-set manifest with an empty cell list) under root.
func mkCacheDir(t *testing.T, root, name, hash string) string {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	raw := `{"version":1,"config_hash":"` + hash + `","seed":1,"budget":0,"cells":[]}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// mkShardFile plants a shard file of the given size and age in a cache dir.
func mkShardFile(t *testing.T, dir, name string, size int, age time.Duration) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
		t.Fatal(err)
	}
	when := time.Now().Add(-age)
	if err := os.Chtimes(path, when, when); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompactCacheSweep pins the completion-cache retention policy: the size
// cap evicts stale live shards oldest-first, never touches cell shards or
// live shards with a fresh heartbeat (a worker is appending — the live-lease
// safety guarantee).
func TestCompactCacheSweep(t *testing.T) {
	root := t.TempDir()
	const kb = 1 << 10
	cacheDir := mkCacheDir(t, root, "fm", "hash-C")
	cell := mkShardFile(t, cacheDir, "Tennis__SMARTFEAT.jsonl", 600*kb, 3*time.Hour)
	liveStale := mkShardFile(t, cacheDir, "live-a.jsonl", 300*kb, 2*time.Hour)
	liveStaler := mkShardFile(t, cacheDir, "live-b.jsonl", 300*kb, 3*time.Hour)
	liveFresh := mkShardFile(t, cacheDir, "live-c.jsonl", 300*kb, 0)
	// A second cache dir under the cap: kept untouched.
	okDir := mkCacheDir(t, root, "fm-ok", "hash-D")
	okCell := mkShardFile(t, okDir, "Tennis__CAAFE.jsonl", 1*kb, time.Hour)
	// A plain run directory rides along to prove retention still works.
	run := mkRun(t, root, "run-1", "hash-A", time.Now())

	rep, err := Compact(root, CompactOptions{KeepN: 1, TTL: time.Minute, CacheMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	removed := map[string]bool{}
	for _, p := range rep.RemovedCacheFiles {
		removed[p] = true
	}
	for _, p := range []string{liveStale, liveStaler} {
		if !removed[p] {
			t.Fatalf("%s should have been swept; removed = %v", p, rep.RemovedCacheFiles)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s reported swept but still present", p)
		}
	}
	for _, p := range []string{cell, liveFresh, okCell} {
		if removed[p] {
			t.Fatalf("%s must never be swept", p)
		}
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("%s should have been kept: %v", p, err)
		}
	}
	if rep.CacheBytesFreed < 600*kb {
		t.Fatalf("CacheBytesFreed = %d, want ≥ %d", rep.CacheBytesFreed, 600*kb)
	}
	if _, err := os.Stat(run); err != nil {
		t.Fatalf("run dir swept by cache pass: %v", err)
	}
	if len(rep.Kept) != 1 || rep.Kept[0] != run {
		t.Fatalf("kept = %v, want [%s]", rep.Kept, run)
	}
}

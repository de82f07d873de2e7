package grid

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"smartfeat/internal/fmgate"
	"smartfeat/internal/lease"
)

// CompactReport summarizes one Compact sweep.
type CompactReport struct {
	// Kept lists the run directories retained, newest first per config hash.
	Kept []string
	// RemovedRuns lists the run directories deleted by the retention policy.
	RemovedRuns []string
	// RemovedLeases lists orphaned lease files (and reap tombstones) swept
	// out of the kept runs.
	RemovedLeases []string
	// RemovedCacheFiles lists live cache shards evicted by the size cap.
	RemovedCacheFiles []string
	// CacheBytesFreed totals the bytes released by the cache sweep.
	CacheBytesFreed int64
}

// CompactOptions configures a Compact sweep.
type CompactOptions struct {
	// KeepN is how many runs to retain per config hash (must be ≥ 1).
	KeepN int
	// TTL is the lease/live-shard staleness horizon; ≤ 0 defaults to
	// lease.DefaultTTL. Pass the TTL your workers run with.
	TTL time.Duration
	// CacheMB caps each shard directory's total *.jsonl bytes. When a
	// directory exceeds it, stale live-* cache shards (mtime older than TTL
	// — a fresh mtime means a worker is actively appending) are evicted
	// oldest-first until under the cap. Cell shards are replay artifacts
	// and are never touched; ≤ 0 disables the cap.
	CacheMB int
}

// Compact applies the retention policy to a root directory of run
// directories (each a Runner.Dir holding a manifest): per config hash, the
// newest keepN runs are kept and older ones deleted — artifacts are
// append-only during a run, so without a policy long-lived deployments grow
// without bound. Within the kept runs, orphaned lease files are swept: a
// lease whose cell already has a completed artifact (completion always wins
// over any lease), a lease stale beyond ttl (its worker is gone — the cells
// are reclaimable anyway, and after the run ends nobody will), and leftover
// reap tombstones. Live leases — fresh heartbeats, no artifact — are never
// touched, so compacting a root with an active multi-worker run is safe: the
// active run is by definition the newest of its hash.
//
// Directories under root carrying an fmgate shard manifest (FM recordings,
// completion-cache dirs) get the cache sweep instead: with CacheMB set,
// stale live-* cache shards are evicted oldest-first until the directory
// fits the cap. Entries that are neither run nor shard directories are left
// alone.
func Compact(root string, opts CompactOptions) (*CompactReport, error) {
	keepN, ttl := opts.KeepN, opts.TTL
	if keepN < 1 {
		return nil, fmt.Errorf("grid: compact keepN must be ≥ 1 (got %d)", keepN)
	}
	if ttl <= 0 {
		ttl = lease.DefaultTTL
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("grid: compacting %s: %w", root, err)
	}
	type run struct {
		dir  string
		hash string
		when time.Time
	}
	byHash := make(map[string][]run)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		m, err := LoadManifest(dir)
		if err != nil {
			continue // not a run directory (FM shards, scratch, …)
		}
		byHash[m.ConfigHash] = append(byHash[m.ConfigHash], run{dir: dir, hash: m.ConfigHash, when: manifestTime(dir, m)})
	}
	rep := &CompactReport{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if _, err := LoadManifest(dir); err == nil {
			continue // run directories are handled by retention below
		}
		if _, err := fmgate.ReadStoreSetManifest(dir); err != nil {
			continue // neither a run nor a shard directory: leave alone
		}
		removed, freed, err := sweepCache(dir, ttl, opts.CacheMB)
		if err != nil {
			return rep, err
		}
		rep.RemovedCacheFiles = append(rep.RemovedCacheFiles, removed...)
		rep.CacheBytesFreed += freed
	}
	for _, runs := range byHash {
		sort.Slice(runs, func(i, j int) bool {
			if !runs[i].when.Equal(runs[j].when) {
				return runs[i].when.After(runs[j].when)
			}
			return runs[i].dir > runs[j].dir // deterministic tie-break
		})
		for i, r := range runs {
			if i < keepN {
				rep.Kept = append(rep.Kept, r.dir)
				swept, err := sweepLeases(r.dir, ttl)
				if err != nil {
					return rep, err
				}
				rep.RemovedLeases = append(rep.RemovedLeases, swept...)
				continue
			}
			if err := os.RemoveAll(r.dir); err != nil {
				return rep, fmt.Errorf("grid: removing expired run %s: %w", r.dir, err)
			}
			rep.RemovedRuns = append(rep.RemovedRuns, r.dir)
		}
	}
	sort.Strings(rep.Kept)
	sort.Strings(rep.RemovedRuns)
	sort.Strings(rep.RemovedLeases)
	sort.Strings(rep.RemovedCacheFiles)
	return rep, nil
}

// sweepCache applies the completion-cache retention policy to one shard
// directory: enforce the size cap (cacheMB > 0) by evicting stale live-*
// shards.
func sweepCache(dir string, ttl time.Duration, cacheMB int) (removed []string, freed int64, err error) {
	if cacheMB <= 0 {
		return nil, 0, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("grid: sweeping cache dir %s: %w", dir, err)
	}
	type shard struct {
		path  string
		size  int64
		mtime time.Time
		live  bool
	}
	var shards []shard
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		st, err := e.Info()
		if err != nil {
			continue
		}
		shards = append(shards, shard{
			path:  filepath.Join(dir, e.Name()),
			size:  st.Size(),
			mtime: st.ModTime(),
			live:  strings.HasPrefix(e.Name(), fmgate.CacheLivePrefix),
		})
		total += st.Size()
	}
	if cap := int64(cacheMB) << 20; total > cap {
		// Oldest stale live shards go first; cell shards and live shards
		// with a fresh heartbeat (mtime within ttl: a worker is appending
		// right now) are never candidates.
		var victims []shard
		for _, s := range shards {
			if s.live && time.Since(s.mtime) > ttl {
				victims = append(victims, s)
			}
		}
		sort.Slice(victims, func(i, j int) bool {
			if !victims[i].mtime.Equal(victims[j].mtime) {
				return victims[i].mtime.Before(victims[j].mtime)
			}
			return victims[i].path < victims[j].path
		})
		for _, v := range victims {
			if total <= cap {
				break
			}
			if err := os.Remove(v.path); err != nil && !os.IsNotExist(err) {
				return removed, freed, fmt.Errorf("grid: evicting cache shard %s: %w", v.path, err)
			}
			total -= v.size
			freed += v.size
			removed = append(removed, v.path)
		}
	}
	return removed, freed, nil
}

// sweepLeases removes a kept run's orphaned lease files.
func sweepLeases(runDir string, ttl time.Duration) ([]string, error) {
	dir := LeasesDir(runDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("grid: sweeping leases of %s: %w", runDir, err)
	}
	var removed []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		key, isLease := strings.CutSuffix(e.Name(), ".lease")
		orphan := false
		switch {
		case !isLease:
			// Reap tombstones (<key>.lease.reap-<worker>) and strays: a
			// tombstone outliving its reaper's claim attempt is garbage.
			orphan = true
		default:
			if _, err := os.Stat(filepath.Join(runDir, key+".json")); err == nil {
				orphan = true // completed artifact wins over any lease
			} else if st, err := os.Stat(path); err == nil && time.Since(st.ModTime()) > ttl {
				orphan = true // holder stopped heartbeating: nobody owns this
			}
		}
		if !orphan {
			continue
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("grid: removing orphaned lease %s: %w", path, err)
		}
		removed = append(removed, path)
	}
	return removed, nil
}

// manifestTime orders runs for retention: manifest UpdatedAt, falling back
// to CreatedAt, falling back to the directory's mtime.
func manifestTime(dir string, m *Manifest) time.Time {
	for _, stamp := range []string{m.UpdatedAt, m.CreatedAt} {
		if ts, err := time.Parse(time.RFC3339, stamp); err == nil {
			return ts
		}
	}
	if st, err := os.Stat(dir); err == nil {
		return st.ModTime()
	}
	return time.Time{}
}

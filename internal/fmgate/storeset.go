package fmgate

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"smartfeat/internal/jsonio"
)

// StoreSetManifest identifies a sharded recording: which configuration
// produced it (so replay can refuse mismatched traffic instead of serving
// stale completions) and which cells it covers.
type StoreSetManifest struct {
	// Version is the on-disk format version.
	Version int `json:"version"`
	// ConfigHash fingerprints the recording run's configuration (seed,
	// budgets, models, error rate — whatever determines the prompt stream).
	// Replay opens compare it against their own fingerprint and fail loudly
	// on mismatch.
	ConfigHash string `json:"config_hash"`
	// Seed and Budget are recorded redundantly for human inspection of a
	// recording directory (the hash alone says nothing actionable).
	Seed   int64 `json:"seed"`
	Budget int   `json:"budget"`
	// CreatedAt stamps the recording run (RFC 3339).
	CreatedAt string `json:"created_at,omitempty"`
	// Cells lists every cell a shard was opened for, sorted. A cell may have
	// an empty shard (it made no FM calls); a cell absent from this list was
	// never recorded, and replaying it is an error.
	Cells []string `json:"cells"`
}

// storeSetVersion is the current manifest format.
const storeSetVersion = 1

// storeSetManifestName is the manifest file inside a shard directory.
const storeSetManifestName = "manifest.json"

// ErrStoreSetConfigMismatch reports a replay open against a recording made
// under a different configuration.
var ErrStoreSetConfigMismatch = errors.New("fmgate: recording config mismatch")

// StoreSet shards the record/replay store per evaluation-grid cell: each cell
// key maps to its own JSONL shard file (<dir>/<cell>.jsonl) plus a shared
// manifest. A full grid recorded in one run can then be replayed per cell —
// any subset, down to a single (dataset × method) cell — because every cell's
// traffic is isolated in its own shard with its own replay cursors.
//
// Record mode creates shard files eagerly on Shard (so a cell that makes no
// FM calls still leaves an empty shard proving it was covered) and keeps the
// manifest on disk current. Replay mode opens shards lazily; asking for a
// cell the recording does not cover fails immediately rather than at the
// first missed prompt.
type StoreSet struct {
	dir    string
	replay bool

	mu       sync.Mutex
	locker   Locker
	manifest StoreSetManifest
	shards   map[string]*Store
	closed   bool
}

// Locker serializes the manifest's read-merge-write cycle across processes.
// Multi-worker grid recordings plug in a lease.Mutex here; single-process
// recordings need none (the in-process mutex suffices).
type Locker interface {
	Lock() error
	Unlock() error
}

// Dir returns the shard directory.
func (s *StoreSet) Dir() string { return s.dir }

// SetLocker installs the cross-process manifest lock. Call before the first
// Shard; replay sets ignore it (the manifest is read-only after open).
func (s *StoreSet) SetLocker(l Locker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.locker = l
}

// NewRecordStoreSet creates a shard directory for recording. The manifest's
// ConfigHash/Seed/Budget come from the caller; the cell list grows as shards
// are opened. If the directory already holds a manifest from an earlier
// recording run it must carry the same ConfigHash — its cell list is then
// preserved, so a resumed grid recording keeps the shards of cells that
// completed before the interruption (each re-executed cell truncates only
// its own shard).
func NewRecordStoreSet(dir string, manifest StoreSetManifest) (*StoreSet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fmgate: creating shard dir: %w", err)
	}
	manifest.Version = storeSetVersion
	manifest.Cells = nil
	if manifest.CreatedAt == "" {
		manifest.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, storeSetManifestName)); err == nil {
		var prev StoreSetManifest
		if err := json.Unmarshal(raw, &prev); err != nil {
			return nil, fmt.Errorf("fmgate: parsing existing shard manifest %s: %w", dir, err)
		}
		if prev.ConfigHash != manifest.ConfigHash {
			return nil, fmt.Errorf("%w: shard dir %s holds a recording made under config %s, this run is %s — record into a fresh directory",
				ErrStoreSetConfigMismatch, dir, prev.ConfigHash, manifest.ConfigHash)
		}
		manifest.Cells = prev.Cells
		if prev.CreatedAt != "" {
			manifest.CreatedAt = prev.CreatedAt
		}
	}
	s := &StoreSet{dir: dir, manifest: manifest, shards: make(map[string]*Store)}
	if err := s.writeManifestLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadStoreSetManifest reads and version-checks a shard directory's
// manifest. Its presence (where a grid run manifest fails to parse — the two
// formats are mutually unreadable) is how grid.Compact and the disk cache
// tier recognize a directory as a shard/cache dir. A missing manifest is
// reported wrapping os.ErrNotExist.
func ReadStoreSetManifest(dir string) (StoreSetManifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, storeSetManifestName))
	if err != nil {
		return StoreSetManifest{}, fmt.Errorf("fmgate: opening shard manifest: %w", err)
	}
	var m StoreSetManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return StoreSetManifest{}, fmt.Errorf("fmgate: parsing shard manifest %s: %w", dir, err)
	}
	if m.Version != storeSetVersion {
		return StoreSetManifest{}, fmt.Errorf("fmgate: shard manifest %s has version %d, want %d", dir, m.Version, storeSetVersion)
	}
	return m, nil
}

// OpenReplayStoreSet opens a shard directory for replay. wantConfigHash is
// the caller's own configuration fingerprint; a mismatch with the recording's
// manifest returns ErrStoreSetConfigMismatch (wrapped) — replaying traffic
// recorded under different seeds/budgets would silently serve wrong
// completions. Pass "" to skip the check (cross-tool replays that verify
// compatibility by other means, e.g. the smartfeat CLI with hand-matched
// flags).
func OpenReplayStoreSet(dir string, wantConfigHash string) (*StoreSet, error) {
	m, err := ReadStoreSetManifest(dir)
	if err != nil {
		return nil, err
	}
	if wantConfigHash != "" && m.ConfigHash != wantConfigHash {
		return nil, fmt.Errorf("%w: recording %s was made under config %s, this run is %s (re-record, or match the recording's seed/budget flags)",
			ErrStoreSetConfigMismatch, dir, m.ConfigHash, wantConfigHash)
	}
	return &StoreSet{dir: dir, replay: true, manifest: m, shards: make(map[string]*Store)}, nil
}

// Replay reports whether the set serves recorded completions (vs recording).
func (s *StoreSet) Replay() bool { return s.replay }

// Manifest returns a copy of the current manifest.
func (s *StoreSet) Manifest() StoreSetManifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.manifest
	m.Cells = append([]string(nil), s.manifest.Cells...)
	return m
}

// Cells lists the covered cell keys, sorted.
func (s *StoreSet) Cells() []string { return s.Manifest().Cells }

// Covers returns the cell keys in want that the recording does not cover,
// sorted. Admission layers (smartfeatd) use it to refuse a job whose plan
// would miss shards up front — a 400 at submit beats a cell failure minutes
// into the run. An empty result means every wanted cell has a shard.
func (s *StoreSet) Covers(want []string) (missing []string) {
	have := make(map[string]bool, len(s.Cells()))
	for _, c := range s.Cells() {
		have[c] = true
	}
	for _, c := range want {
		if !have[c] {
			missing = append(missing, c)
		}
	}
	sort.Strings(missing)
	return missing
}

// validCellKey rejects keys that would escape the shard directory.
func validCellKey(cell string) error {
	if cell == "" {
		return errors.New("fmgate: empty cell key")
	}
	if strings.ContainsAny(cell, "/\\") || strings.Contains(cell, "..") {
		return fmt.Errorf("fmgate: cell key %q contains path elements", cell)
	}
	return nil
}

// Shard returns the cell's store. In record mode the shard file is created
// (truncated) on first use and the manifest updated; in replay mode a missing
// shard is a loud error — the recording does not cover that cell. Shards are
// cached: every gateway of one cell (selector, generator, the per-model CAAFE
// sessions) shares one Store instance, so replay cursors advance coherently
// within the cell.
func (s *StoreSet) Shard(cell string) (*Store, error) {
	if err := validCellKey(cell); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("fmgate: store set is closed")
	}
	if st, ok := s.shards[cell]; ok {
		return st, nil
	}
	path := filepath.Join(s.dir, cell+".jsonl")
	if s.replay {
		if !s.hasCellLocked(cell) {
			return nil, fmt.Errorf("fmgate: recording %s has no shard for cell %q (covered cells: %s)",
				s.dir, cell, strings.Join(s.manifest.Cells, ", "))
		}
		st, err := OpenReplayStore(path)
		if err != nil {
			return nil, err
		}
		s.shards[cell] = st
		return st, nil
	}
	st, err := NewRecordStore(path)
	if err != nil {
		return nil, err
	}
	s.shards[cell] = st
	if !s.hasCellLocked(cell) {
		s.manifest.Cells = append(s.manifest.Cells, cell)
		sort.Strings(s.manifest.Cells)
	}
	if err := s.writeManifestLocked(); err != nil {
		return nil, err
	}
	return st, nil
}

func (s *StoreSet) hasCellLocked(cell string) bool {
	for _, c := range s.manifest.Cells {
		if c == cell {
			return true
		}
	}
	return false
}

// Close flushes and closes every open shard. Record shards flush per entry,
// so an interrupted run stays replayable up to the last completed call even
// without Close.
func (s *StoreSet) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var first error
	for _, st := range s.shards {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeManifestLocked atomically rewrites the manifest file. In record mode
// the on-disk cell list is re-read and unioned in first, so concurrent
// recording workers — each opening shards only for the cells it claimed —
// never erase each other's coverage; the optional Locker closes the
// read-union-write race across processes.
func (s *StoreSet) writeManifestLocked() error {
	if s.locker != nil {
		if err := s.locker.Lock(); err != nil {
			return err
		}
		defer s.locker.Unlock()
	}
	if !s.replay {
		if raw, err := os.ReadFile(filepath.Join(s.dir, storeSetManifestName)); err == nil {
			var disk StoreSetManifest
			if err := json.Unmarshal(raw, &disk); err == nil && disk.ConfigHash == s.manifest.ConfigHash {
				for _, c := range disk.Cells {
					if !s.hasCellLocked(c) {
						s.manifest.Cells = append(s.manifest.Cells, c)
					}
				}
				sort.Strings(s.manifest.Cells)
			}
		}
	}
	return jsonio.WriteAtomic(filepath.Join(s.dir, storeSetManifestName), s.manifest)
}

package grid

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smartfeat/internal/jsonio"
)

// manifestName is the run-directory manifest file.
const manifestName = "manifest.json"

// manifestVersion is the on-disk manifest format version.
const manifestVersion = 1

// CellRecord is one cell's status line in the run manifest.
type CellRecord struct {
	// Status is "completed" or "failed". Skipped and interrupted cells are
	// deliberately absent: they hold no result, so resume reruns them.
	Status string `json:"status"`
	// Err carries the failure reason for failed cells.
	Err string `json:"err,omitempty"`
	// FinishedAt stamps the cell (RFC 3339).
	FinishedAt string `json:"finished_at,omitempty"`
	// Worker names the worker that resolved the cell (multi-worker runs;
	// empty for single-process runs). Peers use failure records to skip
	// re-executing a cell that already failed elsewhere.
	Worker string `json:"worker,omitempty"`
	// Spans summarizes the cell's trace when the run was traced: span name →
	// count of spans completed under the cell (fm.call, fm.attempt,
	// caafe.iter, ml.fit, ml.score, plus outcome counters the spans bubble
	// up). Only counts — never timestamps — so traced and untraced
	// manifests differ solely by this deterministic field.
	Spans map[string]int64 `json:"spans,omitempty"`
}

// Manifest describes a run directory: which configuration produced it and
// how far it got. It is rewritten after every cell, so a run killed at any
// point leaves an accurate progress record for -resume (the artifacts
// themselves are the source of truth for results; the manifest adds the
// config-hash gate and human-readable progress).
type Manifest struct {
	Version    int                   `json:"version"`
	Name       string                `json:"name,omitempty"`
	ConfigHash string                `json:"config_hash"`
	Seed       int64                 `json:"seed"`
	CreatedAt  string                `json:"created_at,omitempty"`
	UpdatedAt  string                `json:"updated_at,omitempty"`
	Cells      map[string]CellRecord `json:"cells"`
}

// newManifest starts a fresh run manifest.
func newManifest(name string, configHash string, seed int64) *Manifest {
	now := time.Now().UTC().Format(time.RFC3339)
	return &Manifest{
		Version:    manifestVersion,
		Name:       name,
		ConfigHash: configHash,
		Seed:       seed,
		CreatedAt:  now,
		UpdatedAt:  now,
		Cells:      make(map[string]CellRecord),
	}
}

// LoadManifest reads a run directory's manifest. A missing file returns
// os.ErrNotExist.
func LoadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("grid: parsing run manifest %s: %w", dir, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("grid: run manifest %s has version %d, want %d", dir, m.Version, manifestVersion)
	}
	if m.Cells == nil {
		m.Cells = make(map[string]CellRecord)
	}
	return &m, nil
}

// save atomically rewrites the manifest.
func (m *Manifest) save(dir string) error {
	m.UpdatedAt = time.Now().UTC().Format(time.RFC3339)
	return jsonio.WriteAtomic(filepath.Join(dir, manifestName), m)
}

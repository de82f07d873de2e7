// Package lease is the grid engine's filesystem-native coordination layer:
// it lets N independent worker processes (or machines sharing a filesystem)
// drain one run directory's cell plan concurrently with no external
// services — no database, no lock server, just the run directory itself.
//
// The protocol is built from three primitives every POSIX filesystem gives
// atomically:
//
//   - exclusive creation (O_CREAT|O_EXCL) — at most one process materializes
//     a given lease file, so claiming a cell is a single syscall race that
//     exactly one worker wins;
//   - rename — stale-lease takeover moves the dead worker's lease aside to a
//     per-reaper tombstone name before reclaiming, so two reapers can never
//     both conclude they removed the same lease;
//   - mtime — heartbeats bump the lease file's modification time in place
//     (utimes), never rewriting content, so a reader always sees either a
//     complete lease record or no file at all.
//
// A lease carries the holder's worker id, PID and acquisition time; its
// freshness is its mtime. A worker that crashes simply stops heartbeating,
// and after TTL any peer may reap the lease and re-execute the cell. The
// protocol therefore guarantees liveness (no cell is stranded by a dead
// worker) but only best-effort mutual exclusion: in the pathological window
// where a reaper takes over a lease whose owner is alive-but-stalled, two
// workers may execute the same cell. The grid engine makes that benign —
// cells are deterministic and artifacts are committed by atomic rename, so
// double execution produces the same bytes twice — and the rule "a completed
// artifact always wins over any lease" resolves every race in favour of
// finished work.
package lease

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"
)

// DefaultTTL is the staleness threshold: a lease whose mtime is older than
// this is considered abandoned and may be reaped. It must comfortably exceed
// the heartbeat interval (DefaultTTL/3 by default) plus worst-case scheduling
// jitter and cross-machine clock skew on shared filesystems.
const DefaultTTL = 30 * time.Second

// Info is the lease file's content: who holds the cell. It is written once
// at acquisition (exclusively) and never rewritten — freshness lives in the
// file's mtime, which heartbeats bump in place.
type Info struct {
	// Worker is the holder's self-chosen identity (the -worker flag).
	Worker string `json:"worker"`
	// PID is the holding process, for human debugging of a stuck run.
	PID int `json:"pid"`
	// AcquiredAt stamps the claim (RFC 3339).
	AcquiredAt string `json:"acquired_at"`
}

// Claim is one successfully acquired cell. Release it when the cell's work
// is finished (artifact written) or abandoned (interrupted), so peers can
// observe completion-or-reclaimability promptly instead of waiting out TTL.
type Claim interface {
	// Release frees the lease. Idempotent; releasing a lease that was
	// reaped from under us (our heartbeat found the file gone — we were
	// presumed dead) is a no-op, not an error. The holder may finish its
	// in-flight cell anyway: deterministic cells plus atomic artifact
	// commits make the duplicate execution benign.
	Release() error
}

// Claimer is the grid runner's cell-acquisition seam. Single-process runs
// use the trivial in-memory implementation (NewMem); multi-worker runs share
// a lease directory via New.
type Claimer interface {
	// Claim attempts to take exclusive ownership of key. ok=false with a nil
	// error means a live peer holds it — the caller should move on and retry
	// later (or load the peer's completed artifact when it appears).
	Claim(key string) (c Claim, ok bool, err error)
	// Holder reports the live lease holder of key, if any. Best-effort: the
	// answer can be stale by the time the caller acts on it.
	Holder(key string) (Info, bool)
}

// ValidKey rejects keys that would escape the lease directory. The grid's
// cell keys (Cell.Key) are already filesystem-safe; this guards direct
// callers.
func ValidKey(key string) error {
	if key == "" {
		return errors.New("lease: empty key")
	}
	if strings.ContainsAny(key, "/\\") || strings.Contains(key, "..") {
		return fmt.Errorf("lease: key %q contains path elements", key)
	}
	return nil
}

// readInfo parses a lease file's holder record. Best-effort: a file emptied
// or removed mid-read yields ok=false.
func readInfo(path string) (Info, bool) {
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) == 0 {
		return Info{}, false
	}
	var in Info
	if err := json.Unmarshal(raw, &in); err != nil {
		return Info{}, false
	}
	return in, true
}

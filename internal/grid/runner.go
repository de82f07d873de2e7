package grid

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smartfeat/internal/experiments"
	"smartfeat/internal/fmgate"
	"smartfeat/internal/lease"
	"smartfeat/internal/obs"
)

// Status classifies a cell's scheduling outcome.
type Status string

const (
	// StatusCompleted: the cell executed and produced an artifact (possibly
	// holding a method-level failure — that is still a result).
	StatusCompleted Status = "completed"
	// StatusResumed: the cell's artifact was loaded from the run directory —
	// written by an earlier run (-resume) or by another worker of the same
	// distributed run.
	StatusResumed Status = "resumed"
	// StatusFailed: the cell's infrastructure errored (dataset load, store
	// wiring, artifact write) — locally, or on another worker per the shared
	// manifest.
	StatusFailed Status = "failed"
	// StatusSkipped: the cell never started (fail-fast after a failure, or
	// the run was already cancelled).
	StatusSkipped Status = "skipped"
	// StatusInterrupted: the cell was aborted mid-execution by cancellation;
	// no artifact is persisted, so resume reruns it.
	StatusInterrupted Status = "interrupted"
	// StatusLeased: the cell was held under another worker's live lease when
	// this process finished — in progress elsewhere. Only multi-worker runs
	// that stop early (cancellation, fail-fast) report it; a healthy worker
	// waits for the peer's artifact and resolves the cell to StatusResumed.
	StatusLeased Status = "leased"
)

// Outcome is one cell's scheduling result.
type Outcome struct {
	Cell     Cell
	Status   Status
	Artifact *Artifact // nil unless Completed/Resumed
	Err      error     // set for Failed (and Interrupted: the context error)
	Holder   string    // Leased: the worker id holding the cell's lease
}

// OpenStores opens a run's FM store set under cfg: a replay set over
// replayDir checked against cfg's fingerprint, or else a record set in
// recordDir stamped with cfg's fingerprint, seed and sampling budget. With
// both empty it returns nil — the run makes live, unrecorded calls.
func OpenStores(cfg experiments.Config, recordDir, replayDir string) (*fmgate.StoreSet, error) {
	switch {
	case replayDir != "":
		return fmgate.OpenReplayStoreSet(replayDir, cfg.Fingerprint())
	case recordDir != "":
		return fmgate.NewRecordStoreSet(recordDir, fmgate.StoreSetManifest{
			ConfigHash: cfg.Fingerprint(),
			Seed:       cfg.Seed,
			Budget:     cfg.SamplingBudget,
		})
	}
	return nil, nil
}

// Runner schedules grid cells on a bounded worker pool. The zero value plus
// a Config is a usable in-memory engine; Dir adds artifact persistence and
// resume, Stores adds per-cell FM record/replay, Worker turns the run
// directory into a shared job queue that N independent processes drain
// concurrently.
type Runner struct {
	// Config is the shared evaluation protocol. Its Workers field bounds the
	// cell-level fan-out (0 = GOMAXPROCS, 1 = sequential); per-cell seeding
	// keeps results bit-identical at any setting.
	Config experiments.Config
	// Dir is the run directory (artifacts + manifest). Empty disables
	// persistence.
	Dir string
	// Name labels the run in the manifest.
	Name string
	// Resume loads completed cells' artifacts from Dir and skips their
	// execution. Without Resume, an existing manifest in Dir is an error —
	// silently overwriting a half-finished run would discard paid-for cells.
	Resume bool
	// KeepGoing disables fail-fast: every cell runs even after one fails.
	KeepGoing bool
	// Stores shards FM record/replay per cell (optional).
	Stores *fmgate.StoreSet
	// Worker switches cell acquisition to filesystem leases under
	// Dir/leases: N processes with distinct Worker ids pointed at one Dir
	// drain the same plan concurrently, each executing only the cells it
	// claims. Completed-artifact presence always wins over any lease; cells
	// left by a crashed peer are reclaimed once its lease goes stale
	// (LeaseTTL); the shared manifest is merged under a cross-process lock.
	// A worker that finishes while peers still execute waits for their
	// artifacts and folds the full grid, so every worker can render the
	// complete tables. Requires Dir; implies join semantics (an existing
	// manifest with a matching config hash is continued, not refused).
	Worker string
	// LeaseTTL is the staleness threshold for peer leases (0 =
	// lease.DefaultTTL). Leases are heartbeated at TTL/3; a worker missing
	// heartbeats for TTL is presumed crashed and its cells are reclaimed.
	LeaseTTL time.Duration
	// Claimer overrides the cell-acquisition protocol (tests; custom
	// coordination backends). Nil selects lease.NewMem for single-process
	// runs and a lease.FileClaimer under Dir/leases for Worker mode.
	Claimer lease.Claimer
	// Logf, when set, receives one line per finished cell (progress UX for
	// long grid runs).
	Logf func(format string, args ...any)
}

// leasesDirName is the lease directory inside a run directory.
const leasesDirName = "leases"

// LeasesDir returns the lease directory of a run directory.
func LeasesDir(runDir string) string { return filepath.Join(runDir, leasesDirName) }

// RunResult is the outcome of a Run: per-cell outcomes in plan order plus
// the completed artifacts, with fold accessors for every table and figure.
type RunResult struct {
	Outcomes []Outcome
	byKey    map[string]*Outcome
}

// outcome returns the cell's outcome (nil if the cell was not in the plan).
func (r *RunResult) outcome(c Cell) *Outcome { return r.byKey[c.Key()] }

// Artifact returns the cell's artifact if it completed (live or resumed).
func (r *RunResult) Artifact(c Cell) (*Artifact, bool) {
	o := r.outcome(c)
	if o == nil || o.Artifact == nil {
		return nil, false
	}
	return o.Artifact, true
}

// Counts tallies outcomes per status.
func (r *RunResult) Counts() map[Status]int {
	m := make(map[Status]int)
	for i := range r.Outcomes {
		m[r.Outcomes[i].Status]++
	}
	return m
}

// Err aggregates the run's failures into an *experiments.RunError (nil when
// every cell completed). Interrupted runs unwrap to the context error; cells
// still held by other workers' live leases are reported as in progress
// elsewhere.
func (r *RunResult) Err() error {
	re := &experiments.RunError{}
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		switch o.Status {
		case StatusFailed:
			re.Failed = append(re.Failed, experiments.CellFailure{Dataset: o.Cell.Dataset, Method: o.Cell.Method, Err: o.Err})
		case StatusSkipped:
			re.Skipped = append(re.Skipped, o.Cell.String())
		case StatusInterrupted:
			re.Interrupted = append(re.Interrupted, o.Cell.String())
			if re.Cause == nil {
				re.Cause = o.Err
			}
		case StatusLeased:
			name := o.Cell.String()
			if o.Holder != "" {
				name += " (held by " + o.Holder + ")"
			}
			re.Elsewhere = append(re.Elsewhere, name)
		}
	}
	if len(re.Failed) == 0 && len(re.Skipped) == 0 && len(re.Interrupted) == 0 && len(re.Elsewhere) == 0 {
		return nil
	}
	return re
}

// runnerObs are one Run's contributors to the process-wide registry:
// executed-cell wall-clock and final statuses.
type runnerObs struct {
	cellSeconds *obs.Histogram
	byStatus    map[Status]*obs.Counter
}

func newRunnerObs() *runnerObs {
	ro := &runnerObs{
		cellSeconds: obs.NewHistogram(obs.TimeBuckets...),
		byStatus:    make(map[Status]*obs.Counter),
	}
	reg := obs.Default
	reg.RegisterHistogram("grid_cell_seconds", "Wall-clock seconds of executed grid cells.", ro.cellSeconds)
	for _, s := range []Status{StatusCompleted, StatusResumed, StatusFailed, StatusSkipped, StatusInterrupted, StatusLeased} {
		c := new(obs.Counter)
		reg.RegisterCounter("grid_cells_total", "Grid cells resolved, by final status.", c, "status", string(s))
		ro.byStatus[s] = c
	}
	return ro
}

// cell records one cell's final status.
func (ro *runnerObs) cell(s Status) {
	if c, ok := ro.byStatus[s]; ok {
		c.Inc()
	}
}

// runState carries the per-Run machinery shared by the scheduling passes.
type runState struct {
	res        *RunResult
	configHash string
	claimer    lease.Claimer
	workers    int
	failFast   atomic.Bool
	obs        *runnerObs

	// priorFailed snapshots the manifest's failure records as of Run start
	// (Worker mode). Only failures *newer* than the snapshot propagate
	// between workers: a failure from an earlier session stays retryable —
	// this worker re-executes it, exactly as single-process -resume would —
	// while a failure recorded by a live peer during this run is honored
	// without wasting a re-execution.
	priorFailed map[string]CellRecord

	manifest   *Manifest
	manifestMu sync.Mutex   // in-process serialization of manifest updates
	fileMu     *lease.Mutex // cross-process serialization (Worker mode)
}

// Run executes the plan. Completed cells are persisted (and, with Resume,
// loaded) under Dir; each cell's FM traffic goes through its own StoreSet
// shard when Stores is set. Cancelling ctx stops scheduling new cells,
// aborts in-flight FM calls, and leaves a resumable run directory.
//
// With Worker set, acquisition goes through filesystem leases: the plan is
// drained in passes — claim and execute what is free, load what peers
// completed, wait (polling) on what peers still hold — until every cell is
// resolved or the run stops early. The returned error is the same aggregate
// RunResult.Err reports; the RunResult is always returned, so callers can
// fold and render whatever subset of the grid completed.
func (r *Runner) Run(ctx context.Context, plan []Cell) (*RunResult, error) {
	res := &RunResult{Outcomes: make([]Outcome, len(plan)), byKey: make(map[string]*Outcome, len(plan))}
	for i, c := range plan {
		res.Outcomes[i] = Outcome{Cell: c, Status: StatusSkipped}
		if prev, dup := res.byKey[c.Key()]; dup {
			return res, fmt.Errorf("grid: duplicate cell %s in plan (also %s)", c, prev.Cell)
		}
		res.byKey[c.Key()] = &res.Outcomes[i]
	}
	distributed := r.Worker != ""
	if distributed && r.Dir == "" {
		return res, fmt.Errorf("grid: worker mode needs a run directory (the leases and artifacts are the coordination medium)")
	}

	st := &runState{res: res, configHash: r.Config.Fingerprint(), obs: newRunnerObs()}
	if r.Dir != "" {
		if err := os.MkdirAll(r.Dir, 0o755); err != nil {
			return res, fmt.Errorf("grid: creating run dir: %w", err)
		}
		if distributed {
			st.fileMu = lease.NewMutex(filepath.Join(r.Dir, manifestName+".lock"), r.LeaseTTL)
		}
		existing, err := LoadManifest(r.Dir)
		switch {
		case err == nil:
			if !r.Resume && !distributed {
				return res, fmt.Errorf("grid: run dir %s already holds a manifest; pass resume to continue it or pick a fresh directory", r.Dir)
			}
			if existing.ConfigHash != st.configHash {
				return res, fmt.Errorf("grid: run dir %s was produced under config %s, this run is %s — the cells would not be comparable; start a fresh run directory",
					r.Dir, existing.ConfigHash, st.configHash)
			}
			st.manifest = existing
		case errors.Is(err, os.ErrNotExist):
			st.manifest = newManifest(r.Name, st.configHash, r.Config.Seed)
			if err := r.saveManifest(st, func(m *Manifest) {}); err != nil {
				return res, err
			}
		default:
			return res, err
		}
	}

	// Resume: load completed cells before scheduling anything.
	if r.Dir != "" && r.Resume {
		for i := range res.Outcomes {
			o := &res.Outcomes[i]
			art, err := ReadArtifact(r.Dir, o.Cell, st.configHash)
			switch {
			case err == nil:
				o.Status, o.Artifact = StatusResumed, art
				r.logf("cell %-40s resumed from artifact", o.Cell)
			case errors.Is(err, os.ErrNotExist):
				// Not completed yet: runs below.
			default:
				return res, err
			}
		}
	}

	// Snapshot pre-existing failure records: they mark cells an *earlier*
	// session failed, which this run retries (like -resume); only failures
	// recorded after this point — by a live peer — short-circuit cells.
	if distributed {
		st.priorFailed = make(map[string]CellRecord)
		for k, rec := range st.manifest.Cells {
			if rec.Status == string(StatusFailed) {
				st.priorFailed[k] = rec
			}
		}
	}

	// Cell acquisition: a trivial in-memory claimer in single-process mode
	// (every claim granted, zero I/O — behavior identical to the pre-lease
	// engine), filesystem leases under Dir/leases in worker mode.
	st.claimer = r.Claimer
	if st.claimer == nil {
		if distributed {
			fc, err := lease.New(LeasesDir(r.Dir), lease.Options{Worker: r.Worker, TTL: r.LeaseTTL})
			if err != nil {
				return res, err
			}
			defer fc.Close()
			st.claimer = fc
		} else {
			st.claimer = lease.NewMem()
		}
	}

	// Concurrent recording workers each open shards only for their claimed
	// cells; the recording manifest's coverage list must merge across
	// processes under a lock of its own.
	if distributed && r.Stores != nil && !r.Stores.Replay() {
		r.Stores.SetLocker(lease.NewMutex(filepath.Join(r.Stores.Dir(), "manifest.json.lock"), r.LeaseTTL))
	}

	st.workers = r.Config.Workers
	if st.workers <= 0 {
		st.workers = runtime.GOMAXPROCS(0)
	}

	todo := make([]int, 0, len(plan))
	for i := range res.Outcomes {
		if res.Outcomes[i].Status != StatusResumed {
			todo = append(todo, i)
		}
	}
	poll := r.pollInterval()
	for {
		r.pass(ctx, st, todo, distributed)
		if !distributed {
			break
		}
		// Cells still under peers' live leases: wait for their artifacts (or
		// their leases to go stale) and re-scan, unless the run stopped.
		todo = todo[:0]
		for i := range res.Outcomes {
			if res.Outcomes[i].Status == StatusLeased {
				todo = append(todo, i)
			}
		}
		if len(todo) == 0 || ctx.Err() != nil || (!r.KeepGoing && st.failFast.Load()) {
			break
		}
		r.logf("waiting on %d cell(s) held by other workers", len(todo))
		select {
		case <-ctx.Done():
		case <-time.After(poll):
		}
	}

	// One increment per cell, on its final status (per-pass counting would
	// double-count cells that wait out a peer's lease and resolve later).
	for i := range res.Outcomes {
		st.obs.cell(res.Outcomes[i].Status)
	}

	err := res.Err()
	if err != nil {
		// A cancelled run may have only skipped cells (none caught mid-
		// flight); attach the context error so errors.Is(err,
		// context.Canceled) holds either way.
		var re *experiments.RunError
		if errors.As(err, &re) && re.Cause == nil {
			re.Cause = ctx.Err()
		}
	}
	return res, err
}

// pollInterval paces the wait-on-peers loop: fast enough to pick up a
// finished peer cell promptly, slow enough that idle waiting costs nothing
// next to cell compute.
func (r *Runner) pollInterval() time.Duration {
	ttl := r.LeaseTTL
	if ttl <= 0 {
		ttl = lease.DefaultTTL
	}
	poll := ttl / 6
	switch {
	case poll < 10*time.Millisecond:
		return 10 * time.Millisecond
	case poll > 5*time.Second:
		return 5 * time.Second
	}
	return poll
}

// pass schedules one sweep over the unresolved cells on the worker pool,
// expensive methods first (experiments.ExpensiveFirst). Outcomes keep their
// plan-order slots, so the order moves wall-clock only.
func (r *Runner) pass(ctx context.Context, st *runState, todo []int, distributed bool) {
	if len(todo) == 0 {
		return
	}
	// Failures recorded by other workers (shared manifest) resolve cells
	// without re-executing them and trigger cross-process fail-fast.
	var foreign map[string]CellRecord
	if distributed {
		if m, err := LoadManifest(r.Dir); err == nil {
			foreign = m.Cells
		}
	}
	experiments.ExpensiveFirst(todo, func(i int) string { return st.res.Outcomes[i].Cell.Method })
	experiments.ForEachIndex(st.workers, len(todo), func(j int) {
		o := &st.res.Outcomes[todo[j]]
		if ctx.Err() != nil || (!r.KeepGoing && st.failFast.Load()) {
			// A cell already observed under a peer's live lease stays
			// "in progress elsewhere" — it is running, not skipped.
			if o.Status != StatusLeased {
				o.Status = StatusSkipped
			}
			return
		}
		key := o.Cell.Key()
		if distributed {
			if r.loadPeerArtifact(st, o) {
				return
			}
			if rec, ok := foreign[key]; ok && rec.Status == string(StatusFailed) && !sameRecord(rec, st.priorFailed[key]) {
				o.Status, o.Holder = StatusFailed, ""
				o.Err = fmt.Errorf("grid: cell failed on worker %q: %s", rec.Worker, rec.Err)
				st.failFast.Store(true)
				r.logf("cell %-40s failed on worker %q", o.Cell, rec.Worker)
				return
			}
		}
		claim, ok, err := st.claimer.Claim(key)
		if err != nil {
			o.Status, o.Err = StatusFailed, err
			st.failFast.Store(true)
			r.logf("cell %-40s FAILED: %v", o.Cell, err)
			return
		}
		if !ok {
			o.Status = StatusLeased
			if info, held := st.claimer.Holder(key); held {
				o.Holder = info.Worker
			}
			r.logf("cell %-40s held by worker %q", o.Cell, o.Holder)
			return
		}
		defer claim.Release()
		// Completed-artifact presence always wins over any lease: the
		// previous holder may have finished between our artifact check and
		// the claim.
		if distributed && r.loadPeerArtifact(st, o) {
			return
		}
		r.executeClaimed(ctx, st, o)
	})
}

// sameRecord reports whether two manifest records describe the same event
// (CellRecord itself is not comparable since it carries the span-summary
// map; the identifying fields are enough to tell a prior-session failure
// from a fresh one).
func sameRecord(a, b CellRecord) bool {
	return a.Status == b.Status && a.Err == b.Err && a.FinishedAt == b.FinishedAt && a.Worker == b.Worker
}

// loadPeerArtifact resolves a cell from an artifact another worker (or an
// earlier run) committed. Unreadable artifacts fail the cell: silently
// re-executing would mask corruption.
func (r *Runner) loadPeerArtifact(st *runState, o *Outcome) bool {
	art, err := ReadArtifact(r.Dir, o.Cell, st.configHash)
	switch {
	case err == nil:
		o.Status, o.Artifact, o.Err, o.Holder = StatusResumed, art, nil, ""
		r.logf("cell %-40s loaded (completed by another worker)", o.Cell)
		return true
	case errors.Is(err, os.ErrNotExist):
		return false
	default:
		o.Status, o.Err = StatusFailed, err
		st.failFast.Store(true)
		r.logf("cell %-40s FAILED: %v", o.Cell, err)
		return true
	}
}

// executeClaimed runs one claimed cell and commits its outcome (artifact +
// manifest record). Each execution is one "cell" span; the span's bubbled-up
// counts (FM calls, CAAFE iterations, model fits under it) become the cell's
// manifest span summary when tracing is on.
func (r *Runner) executeClaimed(ctx context.Context, st *runState, o *Outcome) {
	start := time.Now()
	cctx, span := obs.StartSpan(ctx, "cell",
		obs.String("dataset", o.Cell.Dataset), obs.String("method", o.Cell.Method))
	art, err := r.executeCell(cctx, o.Cell, st.configHash)
	st.obs.cellSeconds.ObserveDuration(time.Since(start))
	spans := span.Counts()
	switch {
	case err != nil && isCancellation(err):
		o.Status, o.Err = StatusInterrupted, err
		r.logf("cell %-40s interrupted", o.Cell)
	case err != nil:
		o.Status, o.Err = StatusFailed, err
		st.failFast.Store(true)
		r.logf("cell %-40s FAILED: %v", o.Cell, err)
		if rerr := r.recordCell(st, o.Cell.Key(), CellRecord{Status: string(StatusFailed), Err: err.Error(), Spans: spans}); rerr != nil {
			o.Err = errors.Join(o.Err, rerr)
		}
	default:
		if r.Dir != "" {
			if werr := WriteArtifact(r.Dir, art); werr != nil {
				// Same reporting as an execution failure: the run paid
				// for this cell, so the log and manifest must say why it
				// is not in the results.
				o.Status, o.Err = StatusFailed, werr
				st.failFast.Store(true)
				r.logf("cell %-40s FAILED: %v", o.Cell, werr)
				if rerr := r.recordCell(st, o.Cell.Key(), CellRecord{Status: string(StatusFailed), Err: werr.Error(), Spans: spans}); rerr != nil {
					o.Err = errors.Join(o.Err, rerr)
				}
				span.SetAttr("status", string(o.Status))
				span.End()
				return
			}
		}
		o.Status, o.Artifact = StatusCompleted, art
		r.logf("cell %-40s completed", o.Cell)
		if rerr := r.recordCell(st, o.Cell.Key(), CellRecord{Status: string(StatusCompleted), Spans: spans}); rerr != nil {
			o.Status, o.Err = StatusFailed, rerr
			st.failFast.Store(true)
		}
	}
	span.SetAttr("status", string(o.Status))
	span.End()
}

// recordCell commits one cell's status line to the run manifest. The
// Dir check stands in for a manifest-presence check deliberately: the two
// are equivalent (Run sets st.manifest exactly when Dir is non-empty), and
// reading st.manifest here would race with saveManifest reassigning it
// under the lock.
func (r *Runner) recordCell(st *runState, key string, rec CellRecord) error {
	if r.Dir == "" {
		return nil
	}
	rec.FinishedAt = time.Now().UTC().Format(time.RFC3339)
	rec.Worker = r.Worker
	return r.saveManifest(st, func(m *Manifest) {
		m.Cells[key] = rec
	})
}

// saveManifest applies update to the manifest and rewrites it. In worker
// mode the read-merge-write cycle runs under the cross-process manifest
// lock, over a fresh load of the on-disk manifest, so concurrent workers
// never clobber each other's cell records.
func (r *Runner) saveManifest(st *runState, update func(*Manifest)) error {
	st.manifestMu.Lock()
	defer st.manifestMu.Unlock()
	if st.fileMu != nil {
		if err := st.fileMu.Lock(); err != nil {
			return err
		}
		defer st.fileMu.Unlock()
		if disk, err := LoadManifest(r.Dir); err == nil {
			if disk.ConfigHash != st.manifest.ConfigHash {
				return fmt.Errorf("grid: run dir %s manifest drifted to config %s mid-run (ours: %s)",
					r.Dir, disk.ConfigHash, st.manifest.ConfigHash)
			}
			disk.Name = st.manifest.Name
			st.manifest = disk
		}
	}
	update(st.manifest)
	return st.manifest.save(r.Dir)
}

// executeCell dispatches one cell to the experiments layer, wiring its FM
// shard first. The error covers cell infrastructure and interruption;
// method-level failures come back inside the artifact.
func (r *Runner) executeCell(ctx context.Context, c Cell, configHash string) (*Artifact, error) {
	cfg := r.Config
	if r.Stores != nil {
		if cfg.FMDiskCache != nil && !r.Stores.Replay() {
			// Exclude the shard we are about to truncate and record into
			// BEFORE it is created: the disk tier must never ingest this
			// process's own in-progress appends back into its index.
			cfg.FMDiskCache.Exclude(filepath.Join(r.Stores.Dir(), c.Key()+".jsonl"))
		}
		shard, err := r.Stores.Shard(c.Key())
		if err != nil {
			return nil, err
		}
		cfg.FMStore = shard
	}
	art := &Artifact{Cell: c, ConfigHash: configHash}
	switch {
	case strings.HasPrefix(c.Method, prefixTable6):
		row, err := experiments.Table6Cell(ctx, c.Dataset, strings.TrimPrefix(c.Method, prefixTable6), cfg)
		if err != nil {
			return nil, err
		}
		art.Kind, art.Table6 = "table6", &row
	case strings.HasPrefix(c.Method, prefixTable7):
		row, err := experiments.Table7Cell(ctx, c.Dataset, strings.TrimPrefix(c.Method, prefixTable7), cfg)
		if err != nil {
			return nil, err
		}
		art.Kind, art.Table7 = "table7", &row
	case strings.HasPrefix(c.Method, prefixFigure1):
		size, err := parseFigure1Size(c.Method)
		if err != nil {
			return nil, err
		}
		point, err := experiments.Figure1Cell(ctx, size, cfg)
		if err != nil {
			return nil, err
		}
		art.Kind, art.Figure1 = "figure1", &point
	case strings.HasPrefix(c.Method, prefixDescriptions):
		res, err := experiments.DescriptionsCell(ctx, c.Dataset, c.Method == descriptionsWith, cfg)
		if err != nil {
			return nil, err
		}
		art.Kind, art.Method = "method", newMethodArtifact(res)
	default:
		res, err := experiments.RunCell(ctx, c.Dataset, c.Method, cfg)
		if err != nil {
			return nil, err
		}
		if res.Interrupted() {
			return nil, res.Err
		}
		art.Kind, art.Method = "method", newMethodArtifact(res)
	}
	return art, nil
}

// isCancellation reports whether err stems from context cancellation.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Command experiments regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	experiments -table 3            # dataset statistics
//	experiments -table 4            # average AUC comparison (also prints 5)
//	experiments -table 6            # feature importance shares (Tennis)
//	experiments -table 7            # operator ablation (Tennis)
//	experiments -figure 1           # row-level vs feature-level cost
//	experiments -figure 2           # Bucketized Age walkthrough
//	experiments -efficiency         # per-method timing
//	experiments -descriptions       # feature-description ablation
//	experiments -all                # everything
//
// Add -quick for the scaled-down configuration, -datasets to restrict the
// comparison to a comma-separated subset, and -workers to bound the
// (dataset × method × model) evaluation parallelism. A selection grid.Spec
// refuses (an unknown or repeated name, say) exits 2 before any cell runs.
//
// # The grid engine
//
// Every run is a grid plan: the selected tables and figures decompose into
// (dataset × method) cells, scheduled on the worker pool with per-cell
// seeding (results are bit-identical to a sequential run) and folded back
// into tables. Table 3 and the Figure 2 walkthrough need no cells. A failed
// cell stops unstarted ones (fail-fast) and the tables still print, marking
// failed cells '!' and skipped ones '?'; one progress line per cell goes to
// stderr. Without further flags the run lives in memory. The flags below
// only add persistence, recording, leases or restrictions:
//
//	-run-dir DIR    persist one JSON artifact per completed cell plus a
//	                manifest under DIR; a fresh run refuses a directory that
//	                already holds one
//	-resume DIR     continue an interrupted run: completed cells load from
//	                their artifacts (config-hash checked), everything else
//	                executes; Ctrl-C leaves the directory resumable again
//	-fm-record DIR  record every cell's FM traffic into per-cell shards
//	                (DIR/<dataset>__<method>.jsonl + manifest)
//	-fm-replay DIR  replay FM traffic from per-cell shards (an -fm-record
//	                directory) — any subset of the recorded grid, down to a
//	                single cell — failing loudly on a config-hash mismatch
//	-fm-concurrency N
//	                bound on each gateway's in-flight FM calls (default 8)
//	-methods LIST   restrict the comparison grid's method cells
//	-keep-going     run every cell even after one fails (default fail-fast
//	                skips unstarted cells, reporting them as skipped)
//
// Efficiency rows are folded from the comparison cells' own accounting
// (per-cell cost attribution). Cells that run side by side contend for CPU,
// so timings are contended at -workers 0; -workers 1 gives uncontended
// timings. Every FM counter is exact at any setting. Ctrl-C cancels
// in-flight cells; with -run-dir/-resume the interrupted grid resumes
// incrementally.
//
// # Multi-worker runs
//
// -worker <id> turns the run directory into a shared job queue: N
// processes with distinct ids pointed at the same -run-dir (and the same
// selection flags) drain one plan concurrently, coordinating through
// lease files under <run-dir>/leases — no external services. Each worker
// executes only the cells it claims; a completed artifact always wins over
// any lease; a worker killed mid-cell stops heartbeating its lease, and
// after -lease-ttl any peer reclaims the cell. Workers that finish early
// wait for their peers' artifacts, so every worker folds and prints the
// complete tables; cells still held elsewhere when a worker is interrupted
// render as '?' (in progress on another worker). The same recording
// directory (-fm-replay) can back any number of workers.
//
//	experiments -table 4 -quick -run-dir runs/t4 -fm-replay rec/ -worker w1 &
//	experiments -table 4 -quick -run-dir runs/t4 -fm-replay rec/ -worker w2 &
//
// # Observability
//
//	-metrics-addr ADDR  serve /metrics (Prometheus text; ?format=json) and
//	                    /debug/pprof for the duration of the run
//	-metrics-linger D   keep the metrics server up D after a successful run
//	                    (CI scrapes a finished run before it exits)
//	-trace              record a span trace — one span per grid cell, FM
//	                    call, CAAFE iteration and model fit — to trace.jsonl
//	                    in the run directory (./trace.jsonl without one);
//	                    convert with tools/traceview for Perfetto
//
// Either switch also prints a run-end profile (phase timings, FM latency
// percentiles, cost) to stderr; with a run directory it is written to
// profile.json. Tables on stdout are byte-identical with or without
// observability. See PERF.md, "Observability".
//
// # Completion cache
//
//	-fm-cache-dir DIR   read-through disk tier over DIR's record shards: a
//	                    completion any run already recorded there (config-hash
//	                    checked) is served at $0 instead of calling upstream;
//	                    workers sharing DIR serve each other's completions.
//	                    A fully covered run is byte-identical to its
//	                    recording. Rejected with -fm-replay (redundant)
//	-fm-cache-size N    in-process LRU capacity (entries, 0 = off; 16384 is
//	                    a good size; affects the config fingerprint).
//	                    Without it the LRU holds only
//	                    disk-promoted entries, so attaching a cache dir never
//	                    changes results
//
// # Run-directory GC
//
//	experiments -gc runs/ -gc-keep 3 -gc-cache-mb 256
//
// applies the retention policy to a directory of run dirs: per config
// hash the newest -gc-keep runs are kept, older ones deleted, and
// orphaned lease files (completed cell, stale heartbeat, reap tombstones)
// are swept from the kept runs. Shard directories (FM recordings used as
// completion caches) get the cache sweep instead: with -gc-cache-mb their
// stale live-* cache shards are evicted oldest-first until under the byte
// cap.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"smartfeat/internal/experiments"
	"smartfeat/internal/fmgate"
	"smartfeat/internal/grid"
	"smartfeat/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs what they select and returns the
// exit code (2 for a usage error, found before any cell runs).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The selection flags parse into the job spec the smartfeatd daemon
	// also accepts, so both check and plan a selection the same way.
	var spec grid.Spec
	spec.Register(fs)
	fmCacheSize := fs.Int("fm-cache-size", 0, "cache deterministic FM completions inside each cell in a content-addressed LRU of this many completions (16384 is a good size); this changes the config fingerprint — cached runs are self-consistent but not bit-identical to uncached ones")
	fmRecord := fs.String("fm-record", "", "record per-cell FM shards (JSONL + manifest) into this directory; the whole selected grid is recorded in one run")
	fmReplay := fs.String("fm-replay", "", "replay FM completions at zero simulated cost from a directory of per-cell shards (from -fm-record; config-hash checked, any cell subset)")
	fmConcurrency := fs.Int("fm-concurrency", 8, "bound on each gateway's concurrent in-flight FM calls")
	runDir := fs.String("run-dir", "", "persist per-cell artifacts and a run manifest into this directory (the grid engine's resumable run directory)")
	resume := fs.String("resume", "", "resume an interrupted run directory: completed cells load from artifacts and are skipped")
	keepGoing := fs.Bool("keep-going", false, "run every grid cell even after one fails (default: fail fast, skipping unstarted cells)")
	worker := fs.String("worker", "", "worker id for a multi-process run: N processes with distinct ids and one -run-dir drain the same grid concurrently via filesystem leases")
	leaseTTL := fs.Duration("lease-ttl", 0, "staleness threshold for peer leases in -worker mode (0 = 30s): a worker silent this long is presumed crashed and its cells are reclaimed")
	gcDir := fs.String("gc", "", "compact this directory of run dirs (keep the newest -gc-keep runs per config hash, sweep orphaned leases) and exit")
	gcKeep := fs.Int("gc-keep", 3, "runs to keep per config hash under -gc")
	gcCacheMB := fs.Int("gc-cache-mb", 0, "under -gc, cap each FM shard directory's total *.jsonl size: stale live-* cache shards (older than -lease-ttl) are evicted oldest-first until under the cap (0 = no cap; cell shards are never touched)")
	metricsAddr := fs.String("metrics-addr", "", "serve the process metrics registry ('/metrics', Prometheus text or ?format=json) and /debug/pprof on this address for the duration of the run (e.g. 'localhost:9090'; ':0' picks a free port)")
	metricsLinger := fs.Duration("metrics-linger", 0, "keep the -metrics-addr server up this long after a successful run (lets CI scrape a finished run)")
	traceFlag := fs.Bool("trace", false, "record a span trace — grid cells, FM calls, CAAFE iterations, model fits and scoring — to trace.jsonl in the run directory (or ./trace.jsonl without one); convert with tools/traceview. Tables are byte-identical with or without tracing")
	var fmf fmgate.Flags
	fmf.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return code
	}

	if *gcDir != "" {
		rep, err := grid.Compact(*gcDir, grid.CompactOptions{KeepN: *gcKeep, TTL: *leaseTTL, CacheMB: *gcCacheMB})
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "gc: kept %d run(s), removed %d run(s), swept %d orphaned lease file(s), evicted %d cache file(s) (%d bytes)\n",
			len(rep.Kept), len(rep.RemovedRuns), len(rep.RemovedLeases), len(rep.RemovedCacheFiles), rep.CacheBytesFreed)
		for _, d := range rep.RemovedRuns {
			fmt.Fprintln(stdout, "gc: removed run", d)
		}
		for _, l := range rep.RemovedLeases {
			fmt.Fprintln(stdout, "gc: swept lease", l)
		}
		for _, c := range rep.RemovedCacheFiles {
			fmt.Fprintln(stdout, "gc: evicted cache file", c)
		}
		return 0
	}

	if err := spec.Validate(); err != nil {
		return fail(2, err)
	}
	if *runDir != "" && *resume != "" {
		return fail(2, errors.New("-resume already names the run directory; drop -run-dir"))
	}
	if *worker != "" && *runDir == "" && *resume == "" {
		return fail(2, errors.New("-worker needs -run-dir (or -resume): the run directory's leases and artifacts are how workers coordinate"))
	}
	cfg := spec.Config()
	if *fmCacheSize > 0 {
		cfg.FMCacheSize = *fmCacheSize
	}
	cfg.FMConcurrency = *fmConcurrency

	var err error
	if cfg.FMPool, err = fmf.Pool(cfg.Seed, *fmRecord != "", *fmReplay != ""); err != nil {
		return fail(2, err)
	}

	// The disk cache tier opens after every fingerprint-bearing flag has
	// landed in cfg: the directory's manifest is validated against (or
	// stamped with) this run's exact config hash.
	if fmf.CacheDir != "" {
		dc, err := fmgate.OpenDiskCache(fmf.CacheDir, fmgate.DiskCacheOptions{
			ConfigHash: cfg.Fingerprint(),
			Worker:     *worker,
			Live:       *fmRecord == "",
			LockTTL:    *leaseTTL,
		})
		if err != nil {
			return fail(1, err)
		}
		defer dc.Close()
		cfg.FMDiskCache = dc
	}

	// Ctrl-C / SIGTERM cancels in-flight cells; with a run directory the
	// interrupted grid resumes incrementally via -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Observability: both switches feed the same process-wide registry; the
	// tables on stdout are byte-identical with or without them.
	obsOn := *metricsAddr != "" || *traceFlag
	succeeded := false // only a successful run lingers
	if *metricsAddr != "" {
		srv, err := obs.ListenAndServe(*metricsAddr, obs.Default)
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stderr, "obs: serving /metrics and /debug/pprof on http://%s\n", srv.Addr)
		defer func() {
			if succeeded && *metricsLinger > 0 {
				fmt.Fprintf(stderr, "obs: metrics server lingering %s (scrape http://%s/metrics)\n", *metricsLinger, srv.Addr)
				time.Sleep(*metricsLinger)
			}
			srv.Close()
		}()
	}
	if *traceFlag {
		path := "trace.jsonl"
		if dir := cmp.Or(*resume, *runDir); dir != "" {
			// The runner would create the directory anyway; creating it here
			// just lets the trace live beside the manifest from the start.
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fail(1, err)
			}
			path = filepath.Join(dir, "trace.jsonl")
		}
		tr, err := obs.Create(path, "experiments")
		if err != nil {
			return fail(1, err)
		}
		defer tr.Close()
		ctx = obs.WithTracer(ctx, tr)
		fmt.Fprintf(stderr, "obs: tracing spans to %s\n", path)
	}
	prof := obs.NewProfile(nil)

	err = runGrid(ctx, stdout, spec, cfg, gridOptions{
		runDir: *runDir, resume: *resume, fmRecord: *fmRecord, fmReplay: *fmReplay,
		keepGoing: *keepGoing, worker: *worker, leaseTTL: *leaseTTL,
		stderr: stderr, prof: prof,
	})
	if obsOn {
		prof.Fill()
		fmt.Fprintln(stderr, prof.Table())
	}
	switch {
	case errors.Is(err, context.Canceled):
		return fail(130, err)
	case err != nil:
		return fail(1, err)
	}
	succeeded = true
	return 0
}

// gridOptions carries the engine flags.
type gridOptions struct {
	runDir, resume     string
	fmRecord, fmReplay string
	keepGoing          bool
	worker             string
	leaseTTL           time.Duration
	// stderr receives progress lines and the tally (nil = os.Stderr).
	stderr io.Writer
	// prof accumulates phase timings and registry totals for the run-end
	// profile (printed by main when observability is on).
	prof *obs.Profile
}

// runGrid builds the plan for the spec, runs it through the grid engine
// (in memory, or with artifacts, resume, sharded record/replay and leases as
// the options ask), folds, and prints to w whatever completed. The spec is
// not validated here: a name it cannot load fails its cells at run time.
func runGrid(ctx context.Context, w io.Writer, spec grid.Spec, cfg experiments.Config, o gridOptions) error {
	stderr := cmp.Or[io.Writer](o.stderr, os.Stderr)
	stores, err := grid.OpenStores(cfg, o.fmRecord, o.fmReplay)
	if err != nil {
		return err
	}
	if stores != nil {
		defer stores.Close()
	}
	runner := &grid.Runner{
		Config:    cfg,
		Dir:       o.runDir,
		Resume:    false,
		KeepGoing: o.keepGoing,
		Stores:    stores,
		Worker:    o.worker,
		LeaseTTL:  o.leaseTTL,
		Name:      strings.Join(spec.DatasetNames(), ","),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "grid: "+format+"\n", args...)
		},
	}
	if o.resume != "" {
		runner.Dir, runner.Resume = o.resume, true
	}

	endPlan := o.prof.Phase("plan")
	plan := spec.Plan()
	endPlan()

	endExec := o.prof.Phase("execute")
	result, runErr := runner.Run(ctx, plan)
	endExec()
	if runErr != nil {
		// Infrastructure failures before any cell was scheduled (config-hash
		// mismatch, pre-existing manifest, bad plan) return a plain error —
		// rendering an all-'?' grid and a resume hint for them would
		// contradict the advice in the error itself.
		var cellErr *experiments.RunError
		if !errors.As(runErr, &cellErr) {
			return runErr
		}
	}

	// Fold and print whatever the run completed, even on error: a fail-fast
	// or interrupted grid still renders its finished cells (with distinct
	// failed/skipped markers), and the error below says what is missing.
	endFold := o.prof.Phase("fold")
	var figure2 string
	if spec.Figure == 2 || spec.All {
		// The walkthrough is a fixed six-row trace, not a grid cell; it runs
		// here and Render places its text in table order.
		out, err := experiments.Figure2Walkthrough(ctx, cfg)
		switch {
		case err != nil && runErr == nil:
			return err
		case err != nil:
			// Don't let the grid error swallow an independent figure-2
			// failure silently.
			fmt.Fprintln(stderr, "experiments: figure 2:", err)
		default:
			figure2 = out
		}
	}
	spec.Selection().Render(w, result, spec.DatasetNames(), cfg, figure2)
	endFold()

	// Per-cell cost attribution rolls up into the run profile; the artifacts
	// are the exact ledger, so the profile needs no separate accounting.
	var cost float64
	for i := range result.Outcomes {
		if a := result.Outcomes[i].Artifact; a != nil && a.Method != nil {
			cost += a.Method.FMUsage.SimCostUSD
		}
	}
	o.prof.SetCost(cost)
	if runner.Dir != "" {
		o.prof.Fill()
		if err := o.prof.WriteFile(filepath.Join(runner.Dir, "profile.json")); err != nil {
			fmt.Fprintln(stderr, "experiments: writing run profile:", err)
		}
	}

	counts := result.Counts()
	fmt.Fprintf(stderr, "grid: %d cells: %d completed, %d resumed, %d failed, %d skipped, %d interrupted, %d on other workers\n",
		len(plan), counts[grid.StatusCompleted], counts[grid.StatusResumed],
		counts[grid.StatusFailed], counts[grid.StatusSkipped], counts[grid.StatusInterrupted],
		counts[grid.StatusLeased])
	if runErr != nil && runner.Dir != "" {
		// The config hash covers neither the selection nor the FM store
		// mode, so the hint carries both: without them a resume would
		// silently plan a different grid, or record/replay in the wrong mode.
		args := spec.Args()
		if o.fmRecord != "" {
			args = append(args, "-fm-record", o.fmRecord)
		}
		if o.fmReplay != "" {
			args = append(args, "-fm-replay", o.fmReplay)
		}
		args = append([]string{"experiments", "-resume", runner.Dir}, args...)
		for i, a := range args {
			if strings.ContainsRune(a, ' ') {
				args[i] = "'" + a + "'"
			}
		}
		fmt.Fprintln(stderr, "grid: resume with:", strings.Join(args, " "))
	}
	return runErr
}

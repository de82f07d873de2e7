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
// (dataset × method × model) evaluation parallelism.
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
//	-fm-cache-size N    in-process LRU capacity (entries; affects the config
//	                    fingerprint). Without it the LRU holds only
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
// cap, and orphaned cache-index.json snapshots are removed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smartfeat/internal/datasets"
	"smartfeat/internal/experiments"
	"smartfeat/internal/fmgate"
	"smartfeat/internal/grid"
	"smartfeat/internal/obs"
)

func main() {
	// The selection flags parse straight into the plan/fold seam the
	// smartfeatd daemon shares, so both render byte-identical tables.
	var sel grid.Selection
	flag.IntVar(&sel.Table, "table", 0, "table number to regenerate (3, 4, 5, 6, 7)")
	flag.IntVar(&sel.Figure, "figure", 0, "figure number to regenerate (1, 2)")
	flag.BoolVar(&sel.Efficiency, "efficiency", false, "run the efficiency comparison")
	flag.BoolVar(&sel.Descriptions, "descriptions", false, "run the feature-description ablation")
	flag.BoolVar(&sel.All, "all", false, "run everything")
	quick := flag.Bool("quick", false, "use the scaled-down configuration")
	seed := flag.Int64("seed", 0, "override the experiment seed")
	names := flag.String("datasets", "", "comma-separated dataset subset (default: all eight)")
	methodsFlag := flag.String("methods", "", "comma-separated comparison-method subset for the grid engine (e.g. 'SMARTFEAT,CAAFE'; 'Initial AUC' is always included)")
	workers := flag.Int("workers", 0, "evaluation parallelism: (dataset × method) cells and per-model training (0 = GOMAXPROCS, 1 = sequential; results are identical at any setting)")
	fmCache := flag.Bool("fm-cache", false, "cache deterministic FM completions inside each cell (content-addressed LRU)")
	fmCacheSize := flag.Int("fm-cache-size", 0, "in-process LRU capacity in completions (implies -fm-cache; like -fm-cache this changes the config fingerprint — cached runs are self-consistent but not bit-identical to uncached ones)")
	fmRecord := flag.String("fm-record", "", "record per-cell FM shards (JSONL + manifest) into this directory; the whole selected grid is recorded in one run")
	fmReplay := flag.String("fm-replay", "", "replay FM completions at zero simulated cost from a directory of per-cell shards (from -fm-record; config-hash checked, any cell subset)")
	fmConcurrency := flag.Int("fm-concurrency", 0, "bound on each gateway's concurrent in-flight FM calls (0 = default 8)")
	runDir := flag.String("run-dir", "", "persist per-cell artifacts and a run manifest into this directory (the grid engine's resumable run directory)")
	resume := flag.String("resume", "", "resume an interrupted run directory: completed cells load from artifacts and are skipped")
	keepGoing := flag.Bool("keep-going", false, "run every grid cell even after one fails (default: fail fast, skipping unstarted cells)")
	worker := flag.String("worker", "", "worker id for a multi-process run: N processes with distinct ids and one -run-dir drain the same grid concurrently via filesystem leases")
	leaseTTL := flag.Duration("lease-ttl", 0, "staleness threshold for peer leases in -worker mode (0 = 30s): a worker silent this long is presumed crashed and its cells are reclaimed")
	gcDir := flag.String("gc", "", "compact this directory of run dirs (keep the newest -gc-keep runs per config hash, sweep orphaned leases) and exit")
	gcKeep := flag.Int("gc-keep", 3, "runs to keep per config hash under -gc")
	gcCacheMB := flag.Int("gc-cache-mb", 0, "under -gc, cap each FM shard directory's total *.jsonl size: stale live-* cache shards (older than -lease-ttl) are evicted oldest-first until under the cap (0 = no cap; cell shards are never touched)")
	metricsAddr := flag.String("metrics-addr", "", "serve the process metrics registry ('/metrics', Prometheus text or ?format=json) and /debug/pprof on this address for the duration of the run (e.g. 'localhost:9090'; ':0' picks a free port)")
	metricsLinger := flag.Duration("metrics-linger", 0, "keep the -metrics-addr server up this long after a successful run (lets CI scrape a finished run)")
	traceFlag := flag.Bool("trace", false, "record a span trace — grid cells, FM calls, CAAFE iterations, model fits — to trace.jsonl in the run directory (or ./trace.jsonl without one); convert with tools/traceview. Tables are byte-identical with or without tracing")
	var fmf fmgate.Flags
	fmf.Register(flag.CommandLine)
	flag.Parse()

	if *gcDir != "" {
		rep, err := grid.Compact(*gcDir, grid.CompactOptions{KeepN: *gcKeep, TTL: *leaseTTL, CacheMB: *gcCacheMB})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("gc: kept %d run(s), removed %d run(s), swept %d orphaned lease file(s), evicted %d cache file(s) (%d bytes)\n",
			len(rep.Kept), len(rep.RemovedRuns), len(rep.RemovedLeases), len(rep.RemovedCacheFiles), rep.CacheBytesFreed)
		for _, d := range rep.RemovedRuns {
			fmt.Println("gc: removed run", d)
		}
		for _, l := range rep.RemovedLeases {
			fmt.Println("gc: swept lease", l)
		}
		for _, c := range rep.RemovedCacheFiles {
			fmt.Println("gc: evicted cache file", c)
		}
		return
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers
	if *fmCache {
		cfg.FMCacheSize = 1 << 14
	}
	if *fmCacheSize > 0 {
		cfg.FMCacheSize = *fmCacheSize
	}
	cfg.FMConcurrency = *fmConcurrency

	var err error
	if cfg.FMPool, err = fmf.Pool(cfg.Seed, *fmRecord != "", *fmReplay != ""); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
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
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer dc.Close()
		cfg.FMDiskCache = dc
	}

	selected := datasets.Names()
	if *names != "" {
		selected = nil
		for _, n := range strings.Split(*names, ",") {
			selected = append(selected, strings.TrimSpace(n))
		}
	}
	var methods []string
	if *methodsFlag != "" {
		methods = []string{experiments.MethodInitial}
		for _, m := range strings.Split(*methodsFlag, ",") {
			if m = strings.TrimSpace(m); m != "" && m != experiments.MethodInitial {
				methods = append(methods, m)
			}
		}
	}

	// Ctrl-C / SIGTERM cancels in-flight cells; with a run directory the
	// interrupted grid resumes incrementally via -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Observability: both switches feed the same process-wide registry; the
	// tables on stdout are byte-identical with or without them.
	obsOn := *metricsAddr != "" || *traceFlag
	if *metricsAddr != "" {
		srv, err := obs.ListenAndServe(*metricsAddr, obs.Default)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "obs: serving /metrics and /debug/pprof on http://%s\n", srv.Addr)
		defer func() {
			if *metricsLinger > 0 {
				fmt.Fprintf(os.Stderr, "obs: metrics server lingering %s (scrape http://%s/metrics)\n", *metricsLinger, srv.Addr)
				time.Sleep(*metricsLinger)
			}
			srv.Close()
		}()
	}
	if *traceFlag {
		path := "trace.jsonl"
		if dir := firstNonEmpty(*resume, *runDir); dir != "" {
			// The runner would create the directory anyway; creating it here
			// just lets the trace live beside the manifest from the start.
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			path = filepath.Join(dir, "trace.jsonl")
		}
		tr, err := obs.Create(path, "experiments")
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer tr.Close()
		ctx = obs.WithTracer(ctx, tr)
		fmt.Fprintf(os.Stderr, "obs: tracing spans to %s\n", path)
	}
	prof := obs.NewProfile(nil)

	err = runGrid(ctx, os.Stdout, sel, selected, methods, cfg, gridOptions{
		runDir: *runDir, resume: *resume, fmRecord: *fmRecord, fmReplay: *fmReplay,
		keepGoing: *keepGoing, quick: *quick, worker: *worker, leaseTTL: *leaseTTL,
		prof: prof,
	})
	if obsOn {
		prof.Fill()
		fmt.Fprintln(os.Stderr, prof.Table())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// firstNonEmpty returns the first non-empty string.
func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// gridOptions carries the engine flags.
type gridOptions struct {
	runDir, resume     string
	fmRecord, fmReplay string
	keepGoing          bool
	quick              bool
	worker             string
	leaseTTL           time.Duration
	// prof accumulates phase timings and registry totals for the run-end
	// profile (printed by main when observability is on).
	prof *obs.Profile
}

// runGrid builds the plan for the selection, runs it through the grid engine
// (in memory, or with artifacts, resume, sharded record/replay and leases as
// the options ask), folds, and prints to w whatever completed.
func runGrid(ctx context.Context, w io.Writer, sel grid.Selection, names, methods []string, cfg experiments.Config, o gridOptions) error {
	if !sel.Any() {
		return fmt.Errorf("nothing selected; use -table, -figure, -efficiency, -descriptions or -all")
	}
	if o.runDir != "" && o.resume != "" {
		return fmt.Errorf("-resume already names the run directory; drop -run-dir")
	}
	if o.worker != "" && o.runDir == "" && o.resume == "" {
		return fmt.Errorf("-worker needs -run-dir (or -resume): the run directory's leases and artifacts are how workers coordinate")
	}

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
		Name:      strings.Join(names, ","),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "grid: "+format+"\n", args...)
		},
	}
	if o.resume != "" {
		runner.Dir, runner.Resume = o.resume, true
	}

	endPlan := o.prof.Phase("plan")
	plan := sel.Plan(names, methods)
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
	if sel.Figure == 2 || sel.All {
		// The walkthrough is a fixed six-row trace, not a grid cell; it runs
		// here and Render places its text in table order.
		out, err := experiments.Figure2Walkthrough(ctx, cfg)
		switch {
		case err != nil && runErr == nil:
			return err
		case err != nil:
			// Don't let the grid error swallow an independent figure-2
			// failure silently.
			fmt.Fprintln(os.Stderr, "experiments: figure 2:", err)
		default:
			figure2 = out
		}
	}
	sel.Render(w, result, names, cfg, figure2)
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
			fmt.Fprintln(os.Stderr, "experiments: writing run profile:", err)
		}
	}

	counts := result.Counts()
	fmt.Fprintf(os.Stderr, "grid: %d cells: %d completed, %d resumed, %d failed, %d skipped, %d interrupted, %d on other workers\n",
		len(plan), counts[grid.StatusCompleted], counts[grid.StatusResumed],
		counts[grid.StatusFailed], counts[grid.StatusSkipped], counts[grid.StatusInterrupted],
		counts[grid.StatusLeased])
	if runErr != nil && runner.Dir != "" {
		fmt.Fprintf(os.Stderr, "grid: resume with: experiments -resume %s %s\n",
			runner.Dir, replaySelectionHint(sel, o, names, methods))
	}
	return runErr
}

// replaySelectionHint reconstructs the flags a resume needs to re-plan
// exactly the interrupted grid — the selection switches, the dataset and
// method restrictions, and the FM store mode (the config hash covers none
// of those, so omitting any would silently resume a different run: a larger
// grid, or remaining cells recorded/replayed in the wrong mode).
func replaySelectionHint(sel grid.Selection, o gridOptions, names, methods []string) string {
	var parts []string
	if sel.All {
		parts = append(parts, "-all")
	}
	if sel.Table != 0 {
		parts = append(parts, "-table "+strconv.Itoa(sel.Table))
	}
	if sel.Figure != 0 {
		parts = append(parts, "-figure "+strconv.Itoa(sel.Figure))
	}
	if sel.Efficiency {
		parts = append(parts, "-efficiency")
	}
	if sel.Descriptions {
		parts = append(parts, "-descriptions")
	}
	if o.quick {
		parts = append(parts, "-quick")
	}
	if len(names) > 0 && len(names) != len(datasets.Names()) {
		parts = append(parts, "-datasets '"+strings.Join(names, ",")+"'")
	}
	if methods != nil {
		var rest []string
		for _, m := range methods {
			if m != experiments.MethodInitial {
				rest = append(rest, m)
			}
		}
		parts = append(parts, "-methods '"+strings.Join(rest, ",")+"'")
	}
	if o.fmRecord != "" {
		parts = append(parts, "-fm-record "+o.fmRecord)
	}
	if o.fmReplay != "" {
		parts = append(parts, "-fm-replay "+o.fmReplay)
	}
	return strings.Join(parts, " ")
}

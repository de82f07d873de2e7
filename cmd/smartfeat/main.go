// Command smartfeat runs SMARTFEAT feature engineering on a CSV file and
// writes the augmented dataset to stdout (or -out).
//
// Usage:
//
//	smartfeat -in data.csv -target Label [-model RF] [-budget 10] [-out out.csv]
//	smartfeat -dataset Tennis            # run on a built-in evaluation dataset
//	smartfeat -dataset Tennis -evaluate  # also score initial vs augmented AUC
//
// All foundation-model traffic is routed through the fmgate gateway:
//
//	-fm-concurrency N   bound on in-flight FM calls (row-level fan-out)
//	-fm-cache           content-addressed completion cache for deterministic
//	                    prompts (function generation, row-level completions)
//	-fm-record PATH     record every upstream completion to PATH (JSONL
//	                    file), or — with -fm-cell — into one shard of a
//	                    sharded recording directory
//	-fm-replay PATH     replay a recording byte-identically: the simulators
//	                    are never called and the usage report shows $0.00
//	                    (keep -seed as recorded — it also generates the
//	                    synthetic -dataset and therefore the prompts). A
//	                    directory is a cmd/experiments -fm-record shard set:
//	                    pass -fm-cell (or -dataset, whose SMARTFEAT cell is
//	                    the default) to pick the shard — a single cell of a
//	                    full grid recording replays through the CLI, since
//	                    the grid's selector/generator keys match the CLI's
//	                    when seed/budget/error-rate agree
//	-fm-cell KEY        shard key inside a sharded recording directory
//	                    (default <dataset>__SMARTFEAT)
//
// The flags shared with cmd/experiments and cmd/smartfeatd — -fm-cache-dir
// and the backend-pool flags -fm-backends, -fm-hedge, -fm-deadline,
// -fm-breaker, -fm-retries and -fm-faults — are declared and cross-checked
// by fmgate.Flags; docs/OPERATIONS.md, "FM traffic flags", describes them.
// A bad combination exits 2. The CLI opens an -fm-cache-dir without checking
// its config hash: compatibility rests on matching the recorded flags.
//
// Observability (see PERF.md, "Observability"):
//
//	-metrics-addr ADDR  serve /metrics (Prometheus text; ?format=json) and
//	                    /debug/pprof for the duration of the run
//	-metrics-linger D   keep the metrics server up D after a successful run
//	-trace PATH         record a span trace (fm.call, fm.attempt, ml.fit)
//	                    to PATH; convert with tools/traceview
//
// A report of every candidate feature (operator, status, inputs), the
// foundation-model usage accounting and the gateway traffic counters is
// printed to stderr. Ctrl-C cancels in-flight FM calls and prints the usage
// of the spend so far instead of dying mid-write. With -evaluate, the five
// downstream models are trained on the parallel columnar harness before and
// after feature engineering and the per-model AUCs are compared.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"smartfeat/internal/core"
	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
	"smartfeat/internal/experiments"
	"smartfeat/internal/fmgate"
	"smartfeat/internal/obs"
)

// cliOptions carries the parsed flags.
type cliOptions struct {
	in, dataset, target, model string
	budget                     int
	seed                       int64
	errorRate                  float64
	out                        string
	rowBudget                  float64
	evaluate                   bool
	workers                    int
	fmCache                    bool
	fmCacheSize                int
	fmRecord, fmReplay         string
	fmCell                     string
	fmConcurrency              int
	fm                         fmgate.Flags
	pool                       *fmgate.PoolSpec
}

// cellKey resolves the shard key for sharded record/replay: the explicit
// -fm-cell, else the -dataset's SMARTFEAT comparison cell.
func (o cliOptions) cellKey() (string, error) {
	if o.fmCell != "" {
		return o.fmCell, nil
	}
	if o.dataset != "" {
		return o.dataset + "__SMARTFEAT", nil
	}
	return "", fmt.Errorf("a sharded recording directory needs -fm-cell (or -dataset) to pick the shard")
}

func main() {
	var o cliOptions
	flag.StringVar(&o.in, "in", "", "input CSV file with a header row")
	flag.StringVar(&o.dataset, "dataset", "", "use a built-in evaluation dataset instead of -in")
	flag.StringVar(&o.target, "target", "", "prediction-class column (required with -in)")
	flag.StringVar(&o.model, "model", "RF", "downstream model shown to the FM (LR, NB, RF, ET, DNN)")
	flag.IntVar(&o.budget, "budget", 10, "sampling budget per operator family")
	flag.Int64Var(&o.seed, "seed", 42, "random seed for the simulated FM")
	flag.Float64Var(&o.errorRate, "error-rate", 0.02, "simulated FM generation-error rate")
	flag.StringVar(&o.out, "out", "", "output CSV path (default stdout)")
	flag.Float64Var(&o.rowBudget, "row-budget", 0, "USD budget permitting full row-level completions")
	flag.BoolVar(&o.evaluate, "evaluate", false, "train the downstream models on the initial and augmented frames and report AUCs to stderr")
	flag.IntVar(&o.workers, "workers", 0, "model-training parallelism for -evaluate (0 = GOMAXPROCS)")
	flag.BoolVar(&o.fmCache, "fm-cache", false, "cache deterministic FM completions (content-addressed LRU)")
	flag.IntVar(&o.fmCacheSize, "fm-cache-size", 0, "in-process LRU capacity in completions (implies -fm-cache)")
	flag.StringVar(&o.fmRecord, "fm-record", "", "record upstream FM completions to this JSONL file (or, with -fm-cell, into a shard of a recording directory)")
	flag.StringVar(&o.fmReplay, "fm-replay", "", "replay FM completions from a recording (zero simulated cost); a directory replays one shard of a cmd/experiments grid recording")
	flag.StringVar(&o.fmCell, "fm-cell", "", "shard key inside a sharded recording directory (default <dataset>__SMARTFEAT)")
	flag.IntVar(&o.fmConcurrency, "fm-concurrency", 8, "bound on concurrent in-flight FM calls (row-level fan-out)")
	metricsAddr := flag.String("metrics-addr", "", "serve the process metrics registry ('/metrics', Prometheus text or ?format=json) and /debug/pprof on this address for the duration of the run (':0' picks a free port)")
	metricsLinger := flag.Duration("metrics-linger", 0, "keep the -metrics-addr server up this long after a successful run (lets CI scrape a finished run)")
	tracePath := flag.String("trace", "", "record a span trace (FM calls, model fits) to this JSONL file; convert with tools/traceview. Output is byte-identical with or without tracing")
	o.fm.Register(flag.CommandLine)
	flag.Parse()

	var err error
	if o.pool, err = o.fm.Pool(o.seed, o.fmRecord != "", o.fmReplay != ""); err != nil {
		fmt.Fprintln(os.Stderr, "smartfeat:", err)
		os.Exit(2)
	}

	// Ctrl-C / SIGTERM cancels in-flight FM calls; the run loop below then
	// reports partial usage accounting instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *metricsAddr != "" {
		srv, err := obs.ListenAndServe(*metricsAddr, obs.Default)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smartfeat:", err)
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
	if *tracePath != "" {
		tr, err := obs.Create(*tracePath, "smartfeat")
		if err != nil {
			fmt.Fprintln(os.Stderr, "smartfeat:", err)
			os.Exit(1)
		}
		defer tr.Close()
		ctx = obs.WithTracer(ctx, tr)
		fmt.Fprintf(os.Stderr, "obs: tracing spans to %s\n", *tracePath)
	}

	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "smartfeat:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// buildRouter opens the record/replay store and disk cache the CLI's fm
// flags name and wires SMARTFEAT's roles over them through the same
// experiments.SmartfeatRouter the grid's SMARTFEAT cells use. Both roles
// share one store; keys embed the model name, so a single recording (file
// or shard) replays a whole selector+generator run. The returned closer
// flushes whatever store backing was opened.
func buildRouter(o cliOptions) (*fmgate.Router, io.Closer, error) {
	cfg := experiments.Config{
		Seed:          o.seed,
		FMErrorRate:   o.errorRate,
		FMConcurrency: o.fmConcurrency,
		FMPool:        o.pool,
	}
	if o.fmCache {
		cfg.FMCacheSize = 1 << 14
	}
	if o.fmCacheSize > 0 {
		cfg.FMCacheSize = o.fmCacheSize
	}
	var closer io.Closer
	var err error
	switch {
	case isDir(o.fmReplay):
		// One shard of a cmd/experiments grid recording. The manifest's
		// config hash covers the experiments protocol, which the CLI cannot
		// recompute — compatibility rests on the operator matching the
		// recorded seed/budget/error-rate flags, so surface the manifest's
		// identity instead of checking a hash. A prompt the shard does not
		// cover still fails loudly at call time.
		cell, cerr := o.cellKey()
		if cerr != nil {
			return nil, nil, cerr
		}
		set, serr := fmgate.OpenReplayStoreSet(o.fmReplay, "")
		if serr != nil {
			return nil, nil, serr
		}
		man := set.Manifest()
		fmt.Fprintf(os.Stderr, "replaying shard %s of %s (recorded seed %d, budget %d, config %s)\n",
			cell, o.fmReplay, man.Seed, man.Budget, man.ConfigHash)
		cfg.FMStore, err = set.Shard(cell)
		closer = set
	case o.fmReplay != "":
		cfg.FMStore, err = fmgate.OpenReplayStore(o.fmReplay)
		closer = cfg.FMStore
	case o.fmRecord != "" && (o.fmCell != "" || isDir(o.fmRecord)):
		// Sharded recording: same shard-key resolution as the replay branch
		// (-fm-cell, else the -dataset's SMARTFEAT cell).
		cell, cerr := o.cellKey()
		if cerr != nil {
			return nil, nil, cerr
		}
		var set *fmgate.StoreSet
		set, err = fmgate.NewRecordStoreSet(o.fmRecord, fmgate.StoreSetManifest{Seed: o.seed, Budget: o.budget})
		if err == nil {
			cfg.FMStore, err = set.Shard(cell)
			closer = set
		}
	case o.fmRecord != "":
		cfg.FMStore, err = fmgate.NewRecordStore(o.fmRecord)
		closer = cfg.FMStore
	}
	if err != nil {
		return nil, nil, err
	}
	if o.fm.CacheDir != "" {
		// Disk tier of the completion cache: checked after the LRU, before
		// upstream. The CLI cannot recompute the experiments config hash, so
		// — as with shard replay above — the manifest is accepted as-is and
		// compatibility rests on the operator matching the recorded flags.
		dc, derr := fmgate.OpenDiskCache(o.fm.CacheDir, fmgate.DiskCacheOptions{Live: cfg.FMStore == nil})
		if derr != nil {
			if closer != nil {
				closer.Close()
			}
			return nil, nil, derr
		}
		cfg.FMDiskCache = dc
		closer = closers{closer, dc}
	}
	// Each role gets its own pool (breakers and fault sequences are per
	// role); a nil pool builds plain gateways.
	router, err := experiments.SmartfeatRouter(cfg)
	if err != nil {
		if closer != nil {
			closer.Close()
		}
		return nil, nil, err
	}
	return router, closer, nil
}

// closers closes a stack of store backings, keeping the first error.
type closers []io.Closer

func (cs closers) Close() error {
	var first error
	for _, c := range cs {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// isDir reports whether path names an existing directory.
func isDir(path string) bool {
	if path == "" {
		return false
	}
	info, err := os.Stat(path)
	return err == nil && info.IsDir()
}

func run(ctx context.Context, o cliOptions) error {
	var frame *dataframe.Frame
	descriptions := map[string]string{}
	targetDesc := ""
	target := o.target
	switch {
	case o.dataset != "":
		d, err := datasets.Load(o.dataset, o.seed)
		if err != nil {
			return err
		}
		frame = d.Frame
		target = d.Target
		targetDesc = d.TargetDescription
		descriptions = d.Descriptions
	case o.in != "":
		if target == "" {
			return fmt.Errorf("-target is required with -in")
		}
		file, err := os.Open(o.in)
		if err != nil {
			return err
		}
		defer file.Close()
		frame, err = dataframe.ReadCSV(file)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("provide -in FILE or -dataset NAME")
	}

	router, storeCloser, err := buildRouter(o)
	if err != nil {
		return err
	}
	if storeCloser != nil {
		defer storeCloser.Close()
	}

	clean := frame.DropNA()
	res, err := core.RunContext(ctx, clean, core.Options{
		Target:            target,
		TargetDescription: targetDesc,
		Descriptions:      descriptions,
		Model:             o.model,
		SelectorFM:        router.Gate(fmgate.RoleSelector),
		GeneratorFM:       router.Gate(fmgate.RoleGenerator),
		SamplingBudget:    o.budget,
		RowLevelBudgetUSD: o.rowBudget,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) && res != nil {
			// Interrupted: report what the aborted run cost, skip the write.
			fmt.Fprintf(os.Stderr, "interrupted after %s: %d candidates generated\n",
				res.Elapsed.Round(1e6), len(res.Features))
			fmt.Fprintln(os.Stderr, "partial usage:")
			fmt.Fprintln(os.Stderr, router.Report())
		}
		return err
	}

	fmt.Fprintf(os.Stderr, "SMARTFEAT: %d candidates, %d features kept, %d originals dropped, %s elapsed\n",
		len(res.Features), len(res.AddedColumns()), len(res.DroppedOriginals), res.Elapsed.Round(1e6))
	for _, g := range res.Features {
		fmt.Fprintf(os.Stderr, "  %-45s %-11s %-18s inputs=%v\n",
			g.Candidate.Name, g.Candidate.Operator, g.Status, g.Candidate.Inputs)
		if g.Status == core.StatusDataSource || g.Status == core.StatusRowLevelSkipped {
			fmt.Fprintf(os.Stderr, "      %s\n", g.Detail)
		}
	}
	fmt.Fprintln(os.Stderr, router.Report())

	if o.evaluate {
		if err := evaluateAUCs(ctx, clean, res.Frame, target, o.seed, o.workers); err != nil {
			return err
		}
	}

	w := os.Stdout
	if o.out != "" {
		file, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer file.Close()
		w = file
	}
	return res.Frame.WriteCSV(w)
}

// evaluateAUCs trains the five downstream models on the initial and
// augmented frames (§4.1 protocol, parallel columnar harness) and prints the
// per-model AUC comparison to stderr.
func evaluateAUCs(ctx context.Context, initial, augmented *dataframe.Frame, target string, seed int64, workers int) error {
	cfg := experiments.QuickConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	before, beforeFail, err := experiments.EvaluateFrame(ctx, initial, target, cfg.Models, cfg)
	if err != nil {
		return err
	}
	after, afterFail, err := experiments.EvaluateFrame(ctx, augmented, target, cfg.Models, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "downstream AUC (×100, 75/25 split):\n")
	names := append([]string(nil), cfg.Models...)
	sort.Strings(names)
	for _, m := range names {
		b, bok := before[m]
		a, aok := after[m]
		switch {
		case bok && aok:
			fmt.Fprintf(os.Stderr, "  %-4s initial %6.2f → augmented %6.2f (%+.2f)\n", m, b, a, a-b)
		case bok:
			fmt.Fprintf(os.Stderr, "  %-4s initial %6.2f → augmented failed: %s\n", m, b, afterFail[m])
		case aok:
			// Feature engineering rescued a model the raw frame broke.
			fmt.Fprintf(os.Stderr, "  %-4s initial failed (%s) → augmented %6.2f\n", m, beforeFail[m], a)
		default:
			fmt.Fprintf(os.Stderr, "  %-4s initial failed: %s\n", m, beforeFail[m])
		}
	}
	return nil
}

// Command perfbench is the repository's end-to-end benchmark. One
// invocation measures one named workload for a fixed time and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (endToEnd); with
// -trace 1 they are the per-layer set (perLayer), read from spans and
// timing wrappers around the layers' public functions.
//
// Every measured pass runs in a fresh child process (the same binary with
// -child measure): the process-wide obs registry only ever grows, so passes
// sharing a process would drift. Workloads that replay FM traffic record it
// in a setup child first, once per binary. Run it from the repository root
// through run.sh, which builds the binary from source:
//
//	bash perfbench/run.sh --workload construct --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metricDef is one reported metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd is what every workload reports with -trace 0. Each workload maps
// its own unit of work onto items (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"items_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer is what every workload reports with -trace 1; a layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"bench.trace_overhead_s", "s"},
	{"bench.unattributed_s", "s"},
	{"bench.record_s", "s"},
	{"datasets.load_s", "s"},
	{"core.self_s", "s"},
	{"core.prep_unary_s", "s"},
	{"core.prep_binary_s", "s"},
	{"core.prep_highorder_s", "s"},
	{"core.prep_extractor_s", "s"},
	{"core.prep_function_s", "s"},
	{"core.post_s", "s"},
	{"core.accept_ratio", "ratio"},
	{"construct.fm_calls_per_feature", "calls"},
	{"construct.sim_usd_per_feature", "USD"},
	{"construct.sim_fm_s_per_feature", "sim_s"},
	{"fm.selector_s", "s"},
	{"fm.generator_s", "s"},
	{"fm.calls", "count"},
	{"fm.prompt_kb", "KiB"},
	{"fmgate.self_s", "s"},
	{"fmgate.miss_us", "us"},
	{"fmgate.hit_us", "us"},
	{"fmgate.hit_ratio", "ratio"},
	{"fmgate.upstream_calls", "count"},
	{"dataframe.serialize_us", "us"},
	{"rowlevel.rows_per_s_cold", "rows/s"},
	{"rowlevel.rows_per_s_warm", "rows/s"},
	{"grid.cell_initial_s", "s"},
	{"grid.cell_smartfeat_s", "s"},
	{"grid.cell_caafe_s", "s"},
	{"grid.cell_featuretools_s", "s"},
	{"grid.cell_autofeat_s", "s"},
	{"grid.cell_self_s", "s"},
	{"grid.cell_mean_s", "s"},
	{"grid.cell_p50_s", "s"},
	{"grid.cell_tail_s", "s"},
	{"grid.idle_s", "s"},
	{"grid.fold_s", "s"},
	{"ml.fit_s", "s"},
	{"ml.fits", "count"},
	{"caafe.iter_s", "s"},
	{"caafe.iters", "count"},
	{"serve.submit_p90_s", "s"},
	{"serve.status_p90_s", "s"},
	{"serve.result_p50_s", "s"},
	{"serve.queue_wait_p50_s", "s"},
	{"serve.exec_p50_s", "s"},
	{"serve.job_p50_s", "s"},
	{"serve.job_tail_s", "s"},
	{"serve.queue_hw", "count"},
	{"serve.rejected", "count"},
	{"obs.scrape_start_s", "s"},
	{"obs.scrape_end_s", "s"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to measure")
	seed := fs.Int64("seed", 1, "workload seed: orders the datasets, rows and jobs")
	seconds := fs.Float64("seconds", 15, "how long to measure")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	child := fs.String("child", "", "internal: run one setup or measure pass in this process")
	dir := fs.String("dir", "", "internal: the invocation's scratch directory")
	shared := fs.String("shared", "", "internal: the setup child's output directory")
	spawned := fs.Int64("spawned", 0, "internal: unix nanoseconds at which the parent started this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	e := env{seed: *seed, dir: *dir, shared: *shared, traced: *trace == 1}
	if *child != "" {
		return runChild(w, *child, e, *spawned, stdout, stderr)
	}
	res, err := orchestrate(w, e, time.Duration(*seconds*float64(time.Second)), stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runChild runs one setup or measure pass and prints its childResult as the
// last line of stdout.
func runChild(w workload, mode string, e env, spawned int64, stdout, stderr io.Writer) int {
	ctx := context.Background()
	var (
		res *childResult
		err error
	)
	switch mode {
	case "setup":
		if w.setup == nil {
			err = errors.New("workload has no setup")
			break
		}
		res, err = w.setup(ctx, e)
	case "measure":
		res, err = w.measure(ctx, e)
		if err == nil && spawned > 0 && !res.setupEnd.IsZero() {
			// The pass's setup runs from process start: exec, runtime
			// init and the workload's own warm-up.
			res.SetupS = time.Duration(res.setupEnd.UnixNano() - spawned).Seconds()
		}
	default:
		err = fmt.Errorf("unknown -child mode %q", mode)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s %s: %v\n", w.name, mode, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// Repetition bounds: three passes give a median that one disturbed pass
// cannot move; workloads whose pass is long may ask for fewer so that a run
// stays inside its time limit.
const (
	minPasses = 3
	maxPasses = 200
)

// orchestrate measures workload w for about d: an optional setup child, then
// fresh measure children until d is used up (at least w.passes()). With
// tracing, passes alternate untraced and traced so the overhead is measured
// on the same machine state.
func orchestrate(w workload, e env, d time.Duration, stderr io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	root := filepath.Join(filepath.Dir(self), "perfbench-work")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.dir = dir

	var recordS float64
	var expect *childResult
	if w.setup != nil {
		if expect, recordS, err = sharedSetup(w, e, self, root, stderr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		e.shared = expect.shared
	}

	start := time.Now()
	var plain, traced []pass
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		n := len(plain) + len(traced)
		if n >= maxPasses {
			break
		}
		if n >= w.passes() && elapsed+meanPass(plain, traced)/2 > d {
			break
		}
		pe := e
		pe.traced = e.traced && i%2 == 1
		cr, rss, err := spawn(w, "measure", pe, stderr)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i+1, err)
		}
		p := pass{res: cr, rssMB: rss}
		if pe.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}

	all := append(append([]pass(nil), plain...), traced...)
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	problems := checkPasses(w, e, all, expect)
	for _, p := range all {
		res.Attempted += p.res.Attempted
		res.Failed += p.res.Failed
	}
	for _, msg := range problems {
		fmt.Fprintf(stderr, "perfbench: %s: WRONG OUTPUT: %s\n", w.name, msg)
	}
	if len(all) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: output digest %s\n", w.name, all[0].res.Digest)
	}
	if len(problems) > 0 {
		res.Correct = false
		if res.Failed == 0 {
			res.Failed = len(problems)
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}

	if !e.traced {
		for k, v := range aggregateEndToEnd(plain, recordS) {
			res.Metrics[k] = v
		}
		fmt.Fprintf(stderr, "perfbench: %s seed=%d: setup child %.3fs, %d passes (walls %.3f), %d ops, %d failed\n",
			w.name, e.seed, recordS, len(plain), walls(plain), res.Attempted, res.Failed)
		return res, nil
	}

	layer := map[string][]float64{}
	for _, p := range traced {
		for k, v := range p.res.Layer {
			layer[k] = append(layer[k], v)
		}
		for _, f := range p.res.Findings {
			fmt.Fprintf(stderr, "perfbench: %s: finding: %s\n", w.name, f)
		}
	}
	if len(traced) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: spans of the last traced pass:\n", w.name)
		for _, line := range traced[len(traced)-1].res.SpanTable {
			fmt.Fprintf(stderr, "  %s\n", line)
		}
	}
	for _, m := range perLayer {
		v := median(layer[m.name])
		if math.IsNaN(v) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	if w.tail != "" {
		// One pass holds too few ops for a tail; the run's passes together
		// may hold enough.
		var ops []float64
		for _, p := range all {
			ops = append(ops, p.res.Ops...)
		}
		if pct, v, ok := tailPercentile(ops); ok {
			res.Metrics[w.tail] = metricValue{v, "s"}
			fmt.Fprintf(stderr, "perfbench: %s: %s is p%d of %d ops\n", w.name, w.tail, pct, len(ops))
		}
	}
	overhead := median(walls(traced)) - median(walls(plain))
	res.Metrics["bench.trace_overhead_s"] = metricValue{overhead, "s"}
	res.Metrics["bench.record_s"] = metricValue{recordS, "s"}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d: %d untraced + %d traced passes, tracing overhead %.3fs\n",
		w.name, e.seed, len(plain), len(traced), overhead)
	return res, nil
}

// sharedSetup returns w's setup output: the FM recording its passes replay
// and the digest they must reproduce. Neither depends on the workload seed,
// so one setup serves every run of the same binary: it is kept under root,
// keyed by the binary's content, and recordS is 0 when it is reused.
func sharedSetup(w workload, e env, self, root string, stderr io.Writer) (expect *childResult, recordS float64, err error) {
	bin, err := os.ReadFile(self)
	if err != nil {
		return nil, 0, err
	}
	dir := filepath.Join(root, "setup-"+w.name+"-"+digestOf(bin))
	if b, err := os.ReadFile(filepath.Join(dir, "setup.json")); err == nil {
		var res childResult
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, 0, err
		}
		res.shared = dir
		return &res, 0, nil
	}
	tmp, err := os.MkdirTemp(root, "setup-tmp-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(tmp) // left over only when the rename fails
	e.shared = tmp
	t0 := time.Now()
	res, _, err := spawn(w, "setup", e, stderr)
	if err != nil {
		return nil, 0, err
	}
	recordS = time.Since(t0).Seconds()
	b, err := json.Marshal(res)
	if err != nil {
		return nil, 0, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "setup.json"), b, 0o644); err != nil {
		return nil, 0, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, 0, fmt.Errorf("keeping the setup output: %w", err)
	}
	res.shared = dir
	return res, recordS, nil
}

// pass is one measure child's report and peak resident set.
type pass struct {
	res   *childResult
	rssMB float64
}

func walls(ps []pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.res.WallS
	}
	return out
}

func meanPass(a, b []pass) time.Duration {
	var sum float64
	n := 0
	for _, ps := range [][]pass{a, b} {
		for _, p := range ps {
			sum += p.res.SetupS + p.res.WallS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return time.Duration(sum / float64(n) * float64(time.Second))
}

// aggregateEndToEnd folds the untraced passes into the end-to-end metrics,
// each the median across passes. setup_s adds the one-time setup child's
// time (recordS, 0 for workloads without one) to the median per-pass setup.
func aggregateEndToEnd(ps []pass, recordS float64) map[string]metricValue {
	var setup, wall, rate, rss []float64
	for _, p := range ps {
		setup = append(setup, p.res.SetupS)
		wall = append(wall, p.res.WallS)
		if p.res.WallS > 0 {
			rate = append(rate, p.res.Items/p.res.WallS)
		}
		rss = append(rss, p.rssMB)
	}
	vals := map[string]float64{
		"setup_s":     recordS + median(setup),
		"wall_s":      median(wall),
		"items_per_s": median(rate),
		"rss_peak_mb": median(rss),
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metricValue{vals[m.name], m.unit}
	}
	return out
}

// checkPasses applies the output checks that span passes: each pass's own
// problems, every pass producing the same digest, the setup child's
// expected digest, and the committed digest.
func checkPasses(w workload, e env, ps []pass, expect *childResult) []string {
	var problems []string
	digests := map[string]int{}
	for _, p := range ps {
		problems = append(problems, p.res.Problems...)
		digests[p.res.Digest]++
	}
	if len(digests) > 1 {
		problems = append(problems, fmt.Sprintf("passes disagree on their output: digests %v", sortedKeys(digests)))
	}
	if expect != nil && expect.Digest != "" {
		for d := range digests {
			if d != expect.Digest {
				problems = append(problems, fmt.Sprintf("output digest %s, the setup run folded %s", d, expect.Digest))
			}
		}
	}
	if want := goldenDigests[w.name]; want != "" {
		for d := range digests {
			if d != want {
				problems = append(problems, fmt.Sprintf("output digest %s, the committed digest is %s", d, want))
			}
		}
	}
	return problems
}

// spawn runs one child pass of w and returns its report and peak RSS in MB.
func spawn(w workload, mode string, e env, stderr io.Writer) (*childResult, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	trace := "0"
	if e.traced {
		trace = "1"
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatInt(e.seed, 10), "-dir", e.dir, "-shared", e.shared, "-trace", trace,
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", mode, err)
	}
	var rssMB float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	res, err := lastJSON(out.Bytes())
	if err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", mode, err)
	}
	return res, rssMB, nil
}

// lastJSON decodes the last non-empty line of a child's stdout.
func lastJSON(b []byte) (*childResult, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if last == nil {
		return nil, errors.New("printed no result")
	}
	var res childResult
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("undecodable result line: %w", err)
	}
	return &res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

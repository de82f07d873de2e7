// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document on stdout, so CI can archive benchmark
// runs as artifacts and the perf trajectory (BENCH_kernel.json,
// BENCH_grid.json) stays diffable across commits instead of living in
// prose. Every raw benchmark line is kept (repeated -count runs included)
// and a per-benchmark median summary is computed for quick comparisons.
//
// Usage: go test -bench . -benchmem ./... | go run ./tools/benchjson
//
// With -append FILE the new report is appended to the trajectory already in
// FILE and the combined JSON array is written to stdout, so the committed
// BENCH_*.json files accumulate one entry per sweep instead of forgetting
// their history (a single data point is a measurement; two or more are a
// trajectory). FILE must hold the array a previous -append wrote, or not
// exist yet; its entries are kept unchanged. Each new entry is stamped
// with the commit, Go version and GOMAXPROCS values it measured.
//
// With -compare OLD NEW it reads two saved `go test -bench` outputs instead
// and prints, for each benchmark in both, the median ns/op of each, their
// ratio NEW/OLD with a 95 % bootstrap confidence interval over the -count
// runs (seeded, so one pair of files prints one table), a verdict that
// calls a change only when the interval leaves 1 out, and the median
// allocs/op of each:
//
//	go test -bench X -count 10 ./pkg > old.txt   # on the parent
//	go test -bench X -count 10 ./pkg > new.txt   # on the change
//	go run ./tools/benchjson -compare old.txt new.txt
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one raw result line. Name is stored without go's
// -GOMAXPROCS suffix, which Procs holds instead (1 when the name has none).
// A sub-benchmark whose own name ends in -N at GOMAXPROCS 1 reads as run at
// N procs; none of this repository's benchmarks is named so.
type Benchmark struct {
	Pkg        string  `json:"pkg,omitempty"`
	Name       string  `json:"name"`
	Procs      int     `json:"procs"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present with -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64   `json:"allocs_per_op,omitempty"`
}

// Summary aggregates repeated runs of one benchmark.
type Summary struct {
	Runs          int     `json:"runs"`
	MedianNsPerOp float64 `json:"median_ns_per_op"`
	MinNsPerOp    float64 `json:"min_ns_per_op"`
	MaxNsPerOp    float64 `json:"max_ns_per_op"`
}

// Report is the whole document. Commit, GoVersion and GOMAXPROCS stamp the
// sweep, so a trajectory entry says what code and toolchain it measured.
type Report struct {
	// Commit is the HEAD SHA of the working directory's git repository,
	// suffixed "+dirty" when tracked files differ from it; empty outside git.
	Commit string `json:"commit"`
	// GoVersion is runtime.Version() of the toolchain that ran benchjson.
	GoVersion string `json:"go_version"`
	// GOMAXPROCS lists the distinct procs values of the sweep's benchmarks.
	GOMAXPROCS []int              `json:"gomaxprocs"`
	GOOS       string             `json:"goos,omitempty"`
	GOARCH     string             `json:"goarch,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Summary    map[string]Summary `json:"summary"`
}

// splitProcs splits go's -GOMAXPROCS suffix off a benchmark name; a name
// without one ran at GOMAXPROCS 1.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
		return name[:i], n
	}
	return name, 1
}

// parseLine parses one benchmark result line, reporting ok=false for
// non-benchmark output (build noise, pass/fail lines, headers).
func parseLine(line, pkg string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	name, procs := splitProcs(fields[0])
	b := Benchmark{Pkg: pkg, Name: name, Procs: procs, Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = val
			seen = true
		case "B/op":
			v := val
			b.BytesPerOp = &v
		case "allocs/op":
			n := int64(val)
			b.AllocsPerOp = &n
		}
	}
	return b, seen
}

// summarize computes the run statistics from one benchmark's per-run
// ns/op values; vals is sorted in place.
func summarize(vals []float64) Summary {
	med := median(vals)
	return Summary{
		Runs:          len(vals),
		MedianNsPerOp: med,
		MinNsPerOp:    vals[0],
		MaxNsPerOp:    vals[len(vals)-1],
	}
}

// loadTrajectory reads a prior trajectory file: a JSON array of reports, or
// nothing (missing file).
func loadTrajectory(path string) ([]json.RawMessage, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var arr []json.RawMessage
	if err := json.Unmarshal(raw, &arr); err != nil {
		return nil, fmt.Errorf("%s is not a JSON array of reports: %w", path, err)
	}
	return arr, nil
}

// gitCommit returns HEAD's SHA for the repository holding dir, with
// "+dirty" when tracked files differ from it, or "" outside git.
func gitCommit(dir string) string {
	git := func(args ...string) string {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			return ""
		}
		return strings.TrimSpace(string(out))
	}
	sha := git("rev-parse", "HEAD")
	if sha != "" && git("status", "--porcelain", "--untracked-files=no") != "" {
		sha += "+dirty"
	}
	return sha
}

// parse reads `go test -bench` output: the header lines and every
// benchmark result line, in order.
func parse(in io.Reader) (Report, error) {
	rep := Report{Benchmarks: []Benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		default:
			if b, ok := parseLine(line, pkg); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rep, fmt.Errorf("read: %w", err)
	}
	if len(rep.Benchmarks) == 0 {
		return rep, errors.New("no benchmark lines")
	}
	return rep, nil
}

// key names a benchmark as go printed it, -GOMAXPROCS suffix included, after
// its package: summary keys, so a benchmark run at two GOMAXPROCS values
// keeps two summaries, and keys line up with the entries written before
// names were stored bare.
func (b Benchmark) key() string {
	key := b.Name
	if b.Procs != 1 {
		key += "-" + strconv.Itoa(b.Procs)
	}
	if b.Pkg != "" {
		key = b.Pkg + "." + key
	}
	return key
}

// run reads `go test -bench` output from in and writes the report (or, with
// appendPath set, the trajectory it extends) to out, stamped with commit.
func run(in io.Reader, out io.Writer, appendPath, commit string) error {
	rep, err := parse(in)
	if err != nil {
		return fmt.Errorf("stdin: %w", err)
	}
	rep.Commit, rep.GoVersion, rep.GOMAXPROCS = commit, runtime.Version(), []int{}
	rep.Summary = map[string]Summary{}
	byName := map[string][]float64{}
	for _, b := range rep.Benchmarks {
		key := b.key()
		byName[key] = append(byName[key], b.NsPerOp)
		if !slices.Contains(rep.GOMAXPROCS, b.Procs) {
			rep.GOMAXPROCS = append(rep.GOMAXPROCS, b.Procs)
		}
	}
	slices.Sort(rep.GOMAXPROCS)
	for key, vals := range byName {
		rep.Summary[key] = summarize(vals)
	}
	var doc any = rep
	if appendPath != "" {
		prior, err := loadTrajectory(appendPath)
		if err != nil {
			return fmt.Errorf("append: %w", err)
		}
		entry, err := json.Marshal(rep)
		if err != nil {
			return fmt.Errorf("encode: %w", err)
		}
		doc = append(prior, entry)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	return nil
}

func main() {
	appendPath := flag.String("append", "", "trajectory file to append this report to; the combined array goes to stdout")
	compareRuns := flag.Bool("compare", false, "compare two saved go test -bench outputs, the arguments OLD and NEW, instead of reading stdin")
	flag.Parse()
	var err error
	switch {
	case *compareRuns && flag.NArg() == 2:
		err = compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	case *compareRuns:
		err = errors.New("usage: benchjson -compare OLD NEW")
	default:
		err = run(os.Stdin, os.Stdout, *appendPath, gitCommit("."))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

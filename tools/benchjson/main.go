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
// exist yet.
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
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one raw result line. Name is kept exactly as printed
// (including any -GOMAXPROCS suffix): a trailing -N is ambiguous between
// the procs suffix and a sub-benchmark name that happens to end in a
// number, so the verbatim name is the only safe identity; Procs is a
// best-effort parse of the suffix for convenience.
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

// Report is the whole document.
type Report struct {
	GOOS       string             `json:"goos,omitempty"`
	GOARCH     string             `json:"goarch,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Summary    map[string]Summary `json:"summary"`
}

// parseProcs best-effort parses the trailing -GOMAXPROCS suffix the
// testing package appends to benchmark names (absent when GOMAXPROCS=1;
// indistinguishable from a sub-benchmark name ending in -N, which is why
// callers must not use it to rewrite the name).
func parseProcs(name string) int {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return 1
	}
	if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
		return n
	}
	return 1
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
	b := Benchmark{Pkg: pkg, Name: fields[0], Procs: parseProcs(fields[0]), Iterations: iters}
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
	sort.Float64s(vals)
	n := len(vals)
	med := vals[n/2]
	if n%2 == 0 {
		med = (vals[n/2-1] + vals[n/2]) / 2
	}
	return Summary{
		Runs:          n,
		MedianNsPerOp: med,
		MinNsPerOp:    vals[0],
		MaxNsPerOp:    vals[n-1],
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

// run reads `go test -bench` output from in and writes the report (or, with
// appendPath set, the trajectory it extends) to out.
func run(in io.Reader, out io.Writer, appendPath string) error {
	rep := Report{Benchmarks: []Benchmark{}, Summary: map[string]Summary{}}
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
		return fmt.Errorf("read: %w", err)
	}
	if len(rep.Benchmarks) == 0 {
		return errors.New("no benchmark lines on stdin")
	}
	byName := map[string][]float64{}
	for _, b := range rep.Benchmarks {
		key := b.Name
		if b.Pkg != "" {
			key = b.Pkg + "." + b.Name
		}
		byName[key] = append(byName[key], b.NsPerOp)
	}
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
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *appendPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkTreeFit-4   	     120	   9876543 ns/op	  2048 B/op	      12 allocs/op", "smartfeat/internal/ml")
	if !ok {
		t.Fatal("benchmark line with -benchmem fields not parsed")
	}
	if b.Name != "BenchmarkTreeFit" || b.Procs != 4 || b.Iterations != 120 || b.NsPerOp != 9876543 {
		t.Fatalf("parsed %+v", b)
	}
	if b.Pkg != "smartfeat/internal/ml" || b.BytesPerOp == nil || *b.BytesPerOp != 2048 || b.AllocsPerOp == nil || *b.AllocsPerOp != 12 {
		t.Fatalf("parsed %+v", b)
	}

	// GOMAXPROCS=1 prints no suffix; the name stays as printed.
	b, ok = parseLine("BenchmarkLoadsim/submit_p50 20 26000000 ns/op", "")
	if !ok || b.Name != "BenchmarkLoadsim/submit_p50" || b.Procs != 1 || b.NsPerOp != 26000000 {
		t.Fatalf("parsed %+v, ok=%v", b, ok)
	}
	if b.BytesPerOp != nil || b.AllocsPerOp != nil {
		t.Fatalf("no -benchmem fields on the line, parsed %+v", b)
	}

	for _, line := range []string{"PASS", "ok  	smartfeat/internal/ml	3.2s", "BenchmarkX abc 1 ns/op", "BenchmarkX 10 5 B/op"} {
		if _, ok := parseLine(line, ""); ok {
			t.Errorf("parseLine(%q) accepted a non-result line", line)
		}
	}
}

const sweep = `goos: linux
goarch: amd64
pkg: smartfeat/internal/ml
cpu: Test CPU
BenchmarkTreeFit-2 10 300 ns/op
BenchmarkTreeFit-2 10 100 ns/op
BenchmarkTreeFit-2 10 200 ns/op
BenchmarkForestFit-2 10 40 ns/op
BenchmarkForestFit-2 10 10 ns/op
PASS
`

func TestRunMedianSummary(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sweep), &out, "", "abc123"); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.CPU != "Test CPU" || len(rep.Benchmarks) != 5 {
		t.Fatalf("report header/benchmarks wrong: %+v", rep)
	}
	tree := rep.Summary["smartfeat/internal/ml.BenchmarkTreeFit-2"]
	if tree != (Summary{Runs: 3, MedianNsPerOp: 200, MinNsPerOp: 100, MaxNsPerOp: 300}) {
		t.Errorf("odd-count summary = %+v", tree)
	}
	forest := rep.Summary["smartfeat/internal/ml.BenchmarkForestFit-2"]
	if forest != (Summary{Runs: 2, MedianNsPerOp: 25, MinNsPerOp: 10, MaxNsPerOp: 40}) {
		t.Errorf("even-count summary = %+v", forest)
	}
}

func TestRunAppendsToArray(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	// A missing file starts a new trajectory.
	var first bytes.Buffer
	if err := run(strings.NewReader(sweep), &first, path, ""); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, first.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := run(strings.NewReader(sweep), &second, path, ""); err != nil {
		t.Fatal(err)
	}
	var traj []Report
	if err := json.Unmarshal(second.Bytes(), &traj); err != nil {
		t.Fatalf("appended output is not a report array: %v", err)
	}
	if len(traj) != 2 || len(traj[0].Benchmarks) != 5 || len(traj[1].Benchmarks) != 5 {
		t.Fatalf("want a 2-entry trajectory, got %d entries", len(traj))
	}
}

func TestRunRejectsNonArrayTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte(`{"goos": "linux", "benchmarks": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(strings.NewReader(sweep), &bytes.Buffer{}, path, "")
	if err == nil || !strings.Contains(err.Error(), "not a JSON array") {
		t.Fatalf("single-report trajectory file: err = %v, want a not-a-JSON-array error", err)
	}
}

// mixedSweep runs one benchmark at GOMAXPROCS 1 and 2, as the row-level
// benches do under -cpu 1,2.
const mixedSweep = `pkg: smartfeat/internal/dataframe
BenchmarkSerializeRow 10 300 ns/op
BenchmarkSerializeRow-2 10 200 ns/op
BenchmarkSerializeRow-2 10 100 ns/op
`

func TestRunStampsEntry(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(mixedSweep), &out, "", "abc123+dirty"); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Commit != "abc123+dirty" || rep.GoVersion != runtime.Version() || !slices.Equal(rep.GOMAXPROCS, []int{1, 2}) {
		t.Fatalf("stamps: commit %q, go %q, gomaxprocs %v", rep.Commit, rep.GoVersion, rep.GOMAXPROCS)
	}
	for i, want := range []int{1, 2, 2} {
		if b := rep.Benchmarks[i]; b.Name != "BenchmarkSerializeRow" || b.Procs != want {
			t.Fatalf("benchmark %d = %s at %d procs, want BenchmarkSerializeRow at %d", i, b.Name, b.Procs, want)
		}
	}
	one := rep.Summary["smartfeat/internal/dataframe.BenchmarkSerializeRow"]
	two := rep.Summary["smartfeat/internal/dataframe.BenchmarkSerializeRow-2"]
	if one.Runs != 1 || one.MedianNsPerOp != 300 || two.Runs != 2 || two.MedianNsPerOp != 150 {
		t.Fatalf("summaries per GOMAXPROCS: %+v", rep.Summary)
	}
}

// TestRunAppendKeepsOldEntries appends a stamped entry after one written
// before entries carried stamps: the old entry comes back with no stamp
// fields and its own content.
func TestRunAppendKeepsOldEntries(t *testing.T) {
	old := `[{"goos": "linux", "benchmarks": [{"name": "BenchmarkTreeFit-2", "procs": 2, "iterations": 1, "ns_per_op": 5}], "summary": {}}]`
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(strings.NewReader(sweep), &out, path, "abc123"); err != nil {
		t.Fatal(err)
	}
	var traj []map[string]any
	if err := json.Unmarshal(out.Bytes(), &traj); err != nil {
		t.Fatal(err)
	}
	var want []map[string]any
	if err := json.Unmarshal([]byte(old), &want); err != nil {
		t.Fatal(err)
	}
	if len(traj) != 2 || !reflect.DeepEqual(traj[0], want[0]) {
		t.Fatalf("old entry changed: %v", traj[0])
	}
	if traj[1]["commit"] != "abc123" || traj[1]["go_version"] != runtime.Version() {
		t.Fatalf("new entry not stamped: %v", traj[1])
	}
}

func TestGitCommit(t *testing.T) {
	if got := gitCommit(t.TempDir()); got != "" {
		t.Fatalf("outside git: commit %q, want empty", got)
	}
	// Inside a checkout the stamp is a SHA, possibly marked dirty; an
	// exported tree has no repository, and the stamp is empty.
	got := strings.TrimSuffix(gitCommit("."), "+dirty")
	if got != "" && (len(got) != 40 || strings.Trim(got, "0123456789abcdef") != "") {
		t.Fatalf("commit stamp %q is not a SHA", got)
	}
}

// Package e2e is the end-to-end harness. It builds the real binaries,
// records the quick Diabetes comparison grid once as the golden, and then
// drives the distributed grid, the chaos-injected backend pool, the disk
// cache tier, the telemetry surface, the serving daemon and the load
// simulator against that one recording. Every folded table must come back
// byte-identical to the sequential run.
//
//	go test ./internal/e2e -v                            # all six checks
//	go test ./internal/e2e -run '^TestE2E$/^serve$' -v   # one check
//	go test ./internal/e2e -run '^TestE2E$/^sim_soak$' -v -seeds 2 -load-bench "$PWD/BENCH_load.json"
//
// The package holds only tests; every check skips under -short.
package e2e

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"smartfeat/internal/obs"
)

var (
	seeds     = flag.Int("seeds", 3, "sim_soak: number of load-simulation seeds, each against a fresh daemon")
	loadBench = flag.String("load-bench", "", "sim_soak: append seed 1's load run to this BENCH_load.json trajectory (empty: no append)")
)

// repoRoot is where the binaries are built from; tests run in the package
// directory.
var repoRoot = filepath.Join("..", "..")

// quickArgs is the comparison selection every check runs, plus extra. Table
// 4/5 folds are deterministic per cell, so they compare byte for byte; the
// efficiency table embeds wall-clock timings and never could.
func quickArgs(extra ...string) []string {
	return append([]string{"-table", "4", "-quick", "-datasets", "Diabetes"}, extra...)
}

// poolFlags replays through a 3-backend pool under transport chaos:
// transient faults, rate limits with retry-after hints, latency jitter and
// one scripted outage window on backend b2. There are no malformed-output
// faults: those corrupt completion content and belong to the unit tests.
var poolFlags = []string{
	"-fm-backends", "3", "-fm-hedge", "2ms", "-fm-deadline", "2s", "-fm-breaker", "3:50ms",
	"-fm-retries", "8", "-fm-faults", "rate=0.1,ratelimit=0.03,jitter=4ms,retryafter=10ms,outage=b2:5-25",
}

// env is what the one-time setup shares with every check.
type env struct {
	bin    string // directory of the built binaries
	golden []byte // stdout of the sequential recording run
	rec    string // that run's FM shard directory; checks must not write to it
}

func (e *env) path(name string) string { return filepath.Join(e.bin, name) }

// setup builds the binaries and records the golden.
func setup(t *testing.T) *env {
	dir := t.TempDir()
	e := &env{bin: filepath.Join(dir, "bin"), rec: filepath.Join(dir, "fm")}
	build := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator),
		"./cmd/experiments", "./cmd/smartfeat", "./cmd/smartfeatd", "./cmd/loadsim", "./tools/traceview")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the binaries: %v\n%s", err, out)
	}
	t.Logf("recording the golden: experiments %s", strings.Join(quickArgs(), " "))
	e.golden, _ = run(t, e.path("experiments"), quickArgs("-run-dir", filepath.Join(dir, "seq"), "-fm-record", e.rec)...)
	return e
}

// run executes bin to completion and fails t unless it exits 0.
func run(t *testing.T, bin string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\nstdout:\n%s\nstderr:\n%s", filepath.Base(bin), strings.Join(args, " "), err, out.Bytes(), errb.Bytes())
	}
	return out.Bytes(), errb.Bytes()
}

// proc is a process running in the background. Its stdout and stderr land
// in files, so a check can poll the log while it runs.
type proc struct {
	name     string
	cmd      *exec.Cmd
	out, log string
	done     chan struct{}
	err      error // Wait's result, set before done closes
}

// start launches bin in the background. The test's cleanup SIGKILLs it if
// it is still running.
func start(t *testing.T, dir, name, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{name: name, out: filepath.Join(dir, name+".out"), log: filepath.Join(dir, name+".log"), done: make(chan struct{})}
	stdout, err := os.Create(p.out)
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := os.Create(p.log)
	if err != nil {
		t.Fatal(err)
	}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout, p.cmd.Stderr = stdout, stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		stdout.Close()
		stderr.Close()
		close(p.done)
	}()
	t.Cleanup(p.kill)
	return p
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill SIGKILLs the process, if it still runs, and reaps it.
func (p *proc) kill() {
	if !p.exited() {
		p.cmd.Process.Kill()
	}
	<-p.done
}

// wait reaps the process, fails t unless it exited 0, and returns stdout.
func (p *proc) wait(t *testing.T) []byte {
	t.Helper()
	<-p.done
	if p.err != nil {
		t.Fatalf("%s: %v; stderr:\n%s", p.name, p.err, readFile(t, p.log))
	}
	return readFile(t, p.out)
}

// terminate sends SIGTERM and requires a clean exit 0.
func (p *proc) terminate(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p.wait(t)
}

// waitLine polls the process's stderr until a complete line starting with
// prefix appears, within timeout, and returns the rest of that line.
func (p *proc) waitLine(t *testing.T, prefix string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		exited := p.exited()
		log := readFile(t, p.log)
		lines := strings.Split(string(log), "\n")
		for _, line := range lines[:len(lines)-1] {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return rest
			}
		}
		if exited || time.Now().After(deadline) {
			t.Fatalf("%s never logged %q (exited=%v, err=%v); stderr:\n%s", p.name, prefix, exited, p.err, log)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// serving waits up to 10s for smartfeatd's address notice and returns its
// base URL.
func (p *proc) serving(t *testing.T) string {
	t.Helper()
	return "http://" + strings.Fields(p.waitLine(t, "smartfeatd: serving on http://", 10*time.Second))[0]
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	if err := json.Unmarshal(readFile(t, path), v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// sameBytes reports an error unless got equals want, showing the first
// line where they part.
func sameBytes(t *testing.T, what string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	i := 0
	for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
		i++
	}
	at := func(lines []string) string {
		if i < len(lines) {
			return fmt.Sprintf("%q", lines[i])
		}
		return "(end of output)"
	}
	t.Errorf("%s: not byte-identical; first difference at line %d:\nwant %s\n got %s", what, i+1, at(wl), at(gl))
}

// get fetches url and fails t unless it answers 200.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return body
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal(get(t, url), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// scrape reads both renderings of a /metrics endpoint.
func scrape(t *testing.T, base string) (text []byte, snaps []obs.MetricSnapshot) {
	t.Helper()
	getJSON(t, base+"/metrics?format=json", &snaps)
	return get(t, base+"/metrics"), snaps
}

// requireSeries reports every family missing from either rendering: the
// JSON snapshot by name, the Prometheus text by sample name (the _bucket
// samples for a histogram).
func requireSeries(t *testing.T, text []byte, snaps []obs.MetricSnapshot, families ...string) {
	t.Helper()
	samples := map[string]bool{}
	for _, line := range strings.Split(string(text), "\n") {
		if i := strings.IndexAny(line, "{ "); i > 0 && line[0] != '#' {
			samples[line[:i]] = true
		}
	}
	for _, name := range families {
		i := slices.IndexFunc(snaps, func(ms obs.MetricSnapshot) bool { return ms.Name == name })
		if i < 0 {
			t.Errorf("JSON scrape has no %s family", name)
			continue
		}
		sample := name
		if snaps[i].Kind == obs.KindHistogram {
			sample += "_bucket"
		}
		if !samples[sample] {
			t.Errorf("Prometheus scrape has no %s samples", sample)
		}
	}
}

// seriesValue is the value of family name's series with exactly labels.
func seriesValue(snaps []obs.MetricSnapshot, name string, labels map[string]string) (float64, bool) {
	for _, ms := range snaps {
		if ms.Name != name {
			continue
		}
		for _, s := range ms.Series {
			if maps.Equal(s.Labels, labels) {
				return s.Value, true
			}
		}
	}
	return 0, false
}

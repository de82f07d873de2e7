package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"smartfeat/internal/grid"
	"smartfeat/internal/loadsim"
	"smartfeat/internal/obs"
	"smartfeat/internal/serve"
)

// TestE2E records the golden once and runs the checks in sequence against
// it, each over real processes.
func TestE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs the quick grid end to end")
	}
	e := setup(t)
	for _, c := range []struct {
		name  string
		check func(*testing.T, *env)
	}{
		{"grid_workers", gridWorkers},
		{"chaos", chaos},
		{"cache", cache},
		{"obs", observability},
		{"serve", serveCheck},
		{"sim_soak", simSoak},
	} {
		t.Run(c.name, func(t *testing.T) { c.check(t, e) })
	}
}

// gridWorkers drains one replayed run directory with three -worker
// processes, then again with one worker killed mid-run. The lease protocol
// between real processes must converge on the sequential tables.
func gridWorkers(t *testing.T, e *env) {
	dir := t.TempDir()
	worker := func(runDir, id, ttl string) *proc {
		return start(t, dir, filepath.Base(runDir)+"-"+id, e.path("experiments"),
			quickArgs("-worker", id, "-run-dir", runDir, "-fm-replay", e.rec, "-lease-ttl", ttl)...)
	}

	dist := filepath.Join(dir, "dist")
	for _, w := range []*proc{worker(dist, "w1", "5s"), worker(dist, "w2", "5s"), worker(dist, "w3", "5s")} {
		sameBytes(t, w.name+" tables", e.golden, w.wait(t))
	}
	leases, err := os.ReadDir(grid.LeasesDir(dist))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, l := range leases {
		t.Errorf("lease %s left behind after a clean drain", l.Name())
	}

	// kill -9 never releases the victim's lease: the survivors must reclaim
	// its cells once the TTL lapses.
	crash := filepath.Join(dir, "crash")
	victim := worker(crash, "w1", "3s")
	time.Sleep(time.Second)
	victim.kill()
	for _, w := range []*proc{worker(crash, "w2", "3s"), worker(crash, "w3", "3s")} {
		sameBytes(t, w.name+" tables after crash-reclaim", e.golden, w.wait(t))
	}
}

// chaos replays the grid, and a smartfeat CLI run, through a faulty
// 3-backend pool. Hedging, failover, breaker trips and retries may change
// which transport serves a completion, never its content; the CLI's FM
// report must prove the machinery engaged.
func chaos(t *testing.T, e *env) {
	dir := t.TempDir()
	out, _ := run(t, e.path("experiments"),
		quickArgs(append([]string{"-run-dir", filepath.Join(dir, "chaos"), "-fm-replay", e.rec}, poolFlags...)...)...)
	sameBytes(t, "pooled grid tables", e.golden, out)

	sf, rec := e.path("smartfeat"), filepath.Join(dir, "sf_fm")
	golden, pooled := filepath.Join(dir, "sf_golden.csv"), filepath.Join(dir, "sf_chaos.csv")
	run(t, sf, "-dataset", "Tennis", "-budget", "8", "-fm-record", rec, "-out", golden)
	_, report := run(t, sf, "-dataset", "Tennis", "-budget", "8", "-fm-replay", rec, "-out", pooled,
		"-fm-backends", "3", "-fm-hedge", "1ms", "-fm-deadline", "2s", "-fm-breaker", "3:10ms", "-fm-retries", "8",
		"-fm-faults", "rate=0.08,ratelimit=0.03,jitter=3ms,retryafter=5ms,outage=b2:3-10")
	sameBytes(t, "pooled smartfeat CSV", readFile(t, golden), readFile(t, pooled))
	// The b2 outage guarantees consecutive transport failures (the breaker
	// opens) and outage errors hedge at once. The stderr report is the only
	// place these counters surface, so it is matched as text.
	for _, want := range []string{`pool:`, `breaker_opens=[1-9]`, `hedges=[1-9]`, `faults_injected=[1-9]`} {
		if !regexp.MustCompile(want).Match(report) {
			t.Errorf("FM report lacks /%s/; report:\n%s", want, report)
		}
	}
}

// cache re-runs the grid cold with only the disk tier pointed at the
// recording: it must serve at least 90% of the recorded completions, call
// upstream zero times at $0, and fold the golden tables.
func cache(t *testing.T, e *env) {
	dir := t.TempDir()
	recorded := 0
	shards, _ := filepath.Glob(filepath.Join(e.rec, "*.jsonl"))
	for _, s := range shards {
		recorded += bytes.Count(readFile(t, s), []byte("\n"))
	}
	if recorded == 0 {
		t.Fatal("the recording holds no completions")
	}
	// The disk tier writes its manifest, live shards and index into the
	// cache directory, so it gets a copy of the shared recording.
	cacheDir := filepath.Join(dir, "fm")
	if err := os.CopyFS(cacheDir, os.DirFS(e.rec)); err != nil {
		t.Fatal(err)
	}
	runDir := filepath.Join(dir, "cache")
	out, _ := run(t, e.path("experiments"), quickArgs("-run-dir", runDir, "-fm-cache-dir", cacheDir, "-worker", "w1")...)
	sameBytes(t, "cached tables", e.golden, out)

	var prof obs.Profile
	readJSON(t, filepath.Join(runDir, "profile.json"), &prof)
	if prof.FMUpstreamCalls != 0 || prof.SimCostUSD != 0 {
		t.Errorf("cached run made %d upstream calls for $%g, want 0 and $0", prof.FMUpstreamCalls, prof.SimCostUSD)
	}
	if floor := int64(recorded * 9 / 10); prof.FMDiskHits < floor {
		t.Errorf("disk-tier hits %d below %d (90%% of %d recorded)", prof.FMDiskHits, floor, recorded)
	}
}

// observability replays the grid with span tracing, a live /metrics and
// /debug/pprof server, worker mode (lease series) and a faulty pool
// (breaker series). Observing may not perturb the tables; every subsystem
// must publish its series; the trace must convert through traceview with
// one cell span per planned cell.
func observability(t *testing.T, e *env) {
	dir := t.TempDir()
	runDir := filepath.Join(dir, "obs")
	p := start(t, dir, "obs", e.path("experiments"), quickArgs(append([]string{
		"-run-dir", runDir, "-fm-replay", e.rec, "-worker", "w1",
		"-trace", "-metrics-addr", "127.0.0.1:0", "-metrics-linger", "30s"}, poolFlags...)...)...)
	// The server lingers after the run; the profile table marks its end.
	p.waitLine(t, "== run profile ==", 2*time.Minute)
	base := "http://" + p.waitLine(t, "obs: serving /metrics and /debug/pprof on http://", 0)
	text, snaps := scrape(t, base)
	get(t, base+"/debug/pprof/cmdline")
	// SIGKILL: the run is done and its trace closed; SIGTERM would sit out
	// the linger window.
	p.kill()
	sameBytes(t, "observed tables", e.golden, readFile(t, p.out))

	requireSeries(t, text, snaps,
		"fm_requests_total", "fm_replayed_total", "fm_request_seconds",
		"fmcache_hits_total", "fmcache_misses_total", "fmcache_evictions_total", "fmcache_bytes",
		"fmpool_calls_total", "fmpool_backend_picks_total", "fmpool_breaker_opens_total",
		"grid_cells_total", "grid_cell_seconds", "lease_claims_total")

	trace := filepath.Join(runDir, "trace.jsonl")
	converted, _ := run(t, e.path("traceview"), trace)
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(converted, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Errorf("traceview output has no traceEvents (err %v)", err)
	}
	spans := map[string]int{}
	for i, line := range bytes.Split(bytes.TrimSpace(readFile(t, trace)), []byte("\n")) {
		var s struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("%s:%d: %v", trace, i+1, err)
		}
		spans[s.Name]++
	}
	planned := len(grid.Selection{Table: 4}.Plan([]string{"Diabetes"}, nil))
	m, err := grid.LoadManifest(runDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != planned || spans["cell"] != planned {
		t.Errorf("planned %d cells; manifest holds %d, trace has %d cell spans", planned, len(m.Cells), spans["cell"])
	}
	if spans["fm.call"] == 0 {
		t.Error("no fm.call spans in the trace")
	}
}

// serveCheck serves the golden selection from a replay-backed smartfeatd:
// the result must match the CLI byte for byte, a full admission queue must
// answer 429 with Retry-After, /metrics must carry the serve_* series, and
// SIGTERM must drain every job and exit 0.
func serveCheck(t *testing.T, e *env) {
	dir := t.TempDir()
	d := start(t, dir, "smartfeatd", e.path("smartfeatd"), "-addr", "127.0.0.1:0", "-run-root", filepath.Join(dir, "root"),
		"-fm-replay", e.rec, "-queue-depth", "1", "-executors", "1", "-worker", "d1",
		"-drain-timeout", "120s", "-retry-after", "3s")
	base := d.serving(t)
	get(t, base+"/healthz")

	submit := func(name string, spec serve.JobSpec) (*http.Response, []byte) {
		body, _ := json.Marshal(map[string]any{"name": name, "spec": spec}) // a JobSpec always marshals
		req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", "ci")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}
	if resp, body := submit("t4", serve.JobSpec{Table: 4, Quick: true, Datasets: []string{"Diabetes"}}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit t4: %s, want 202\n%s", resp.Status, body)
	}

	// t4 holds the single executor and the queue takes one filler, so a
	// later filler must bounce.
	filler := serve.JobSpec{Table: 4, Quick: true, Datasets: []string{"Diabetes"}, Methods: []string{"SMARTFEAT"}}
	rejected := false
	for i := 1; i <= 20 && !rejected; i++ {
		resp, body := submit(fmt.Sprintf("filler-%d", i), filler)
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			rejected = true
			if ra := resp.Header.Get("Retry-After"); ra != "3" {
				t.Errorf("429 carries Retry-After %q, want 3", ra)
			}
			var hint struct {
				RetryAfter int `json:"retry_after"`
			}
			if err := json.Unmarshal(body, &hint); err != nil || hint.RetryAfter != 3 {
				t.Errorf("429 body carries no retry_after 3 (err %v):\n%s", err, body)
			}
		default:
			t.Fatalf("filler submit: %s, want 202 or 429\n%s", resp.Status, body)
		}
	}
	if !rejected {
		t.Fatal("the admission queue never overflowed into a 429")
	}

	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(200 * time.Millisecond) {
		var v serve.JobView
		getJSON(t, base+"/v1/jobs/t4", &v)
		if v.Status == serve.StatusCompleted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job t4 did not complete; last status %+v\ndaemon log:\n%s", v, readFile(t, d.log))
		}
	}
	sameBytes(t, "served result", e.golden, get(t, base+"/v1/jobs/t4/result"))

	text, snaps := scrape(t, base)
	requireSeries(t, text, snaps,
		"serve_queue_depth", "serve_jobs_running", "serve_jobs_admitted_total", "serve_jobs_rejected_total",
		"serve_jobs_completed_total", "serve_jobs_failed_total", "serve_jobs_canceled_total", "serve_request_seconds")
	if n, ok := seriesValue(snaps, "serve_jobs_admitted_total", nil); n < 2 {
		t.Errorf("serve_jobs_admitted_total = %g (present %v), want >= 2", n, ok)
	}
	if n, ok := seriesValue(snaps, "serve_jobs_rejected_total", map[string]string{"reason": "queue_full"}); n < 1 {
		t.Errorf("serve_jobs_rejected_total{reason=queue_full} = %g (present %v), want >= 1", n, ok)
	}

	// Admitted fillers may still be replaying: the drain must finish them.
	d.terminate(t)
	if log := readFile(t, d.log); !bytes.Contains(log, []byte("drain: all jobs settled")) {
		t.Errorf("drain did not settle all jobs; log:\n%s", log)
	}
}

// simSoak drives a fresh chaos-pool daemon per seed with loadsim in strict
// mode: each run audits result stability and reconciles the daemon's
// serve_* counters against its own ledger. Across seeds, which only move
// timing, the tables must be byte-identical, and the full selection must
// match the CLI golden.
func simSoak(t *testing.T, e *env) {
	dir := t.TempDir()
	// Op k submits spec k%3. Restricting methods keeps the config
	// fingerprint, so the recording covers all three.
	var specArgs []string
	for _, methods := range [][]string{nil, {"SMARTFEAT"}, {"CAAFE"}} {
		spec, _ := json.Marshal(serve.JobSpec{Table: 4, Quick: true, Datasets: []string{"Diabetes"}, Methods: methods}) // always marshals
		specArgs = append(specArgs, "-spec", string(spec))
	}
	bench := filepath.Join(dir, "bench.txt")
	tables := func(seed int) string { return filepath.Join(dir, fmt.Sprintf("out-%d", seed), "tables") }
	for seed := 1; seed <= *seeds; seed++ {
		// Queue depth 1 against 4 closed-loop clients exercises the
		// 429 + Retry-After path on every seed.
		d := start(t, dir, fmt.Sprintf("daemon-%d", seed), e.path("smartfeatd"),
			"-addr", "127.0.0.1:0", "-run-root", filepath.Join(dir, fmt.Sprintf("root-%d", seed)), "-fm-replay", e.rec,
			"-queue-depth", "1", "-executors", "2", "-worker", fmt.Sprintf("soak-%d", seed),
			"-drain-timeout", "120s", "-retry-after", "1s", "-fm-backends", "3", "-fm-retries", "4",
			"-fm-faults", "rate=0.05,ratelimit=0.05,retryafter=10ms,jitter=1ms")
		out := filepath.Dir(tables(seed))
		args := append([]string{"-addr", d.serving(t)}, specArgs...)
		args = append(args, "-tenants", "2", "-clients", "2", "-ops", "6", "-seed", strconv.Itoa(seed),
			"-retries", "20", "-strict", "-q", "-out", out)
		if seed == 1 {
			args = append(args, "-bench", bench)
		}
		stdout, stderr := run(t, e.path("loadsim"), args...)
		t.Logf("seed %d:\n%s%s", seed, stdout, stderr)
		var rep loadsim.Report
		readJSON(t, filepath.Join(out, "load_report.json"), &rep)
		if len(rep.Findings) > 0 || rep.Exhausted > 0 {
			t.Errorf("seed %d: %d findings, %d ops exhausted their retries: %+v", seed, len(rep.Findings), rep.Exhausted, rep.Findings)
		}
		d.terminate(t)

		sameBytes(t, fmt.Sprintf("seed %d full-selection table", seed), e.golden, readFile(t, filepath.Join(tables(seed), "table-00.txt")))
		if seed > 1 {
			sameTree(t, tables(1), tables(seed))
		}
	}

	if *loadBench != "" {
		// A relative path is taken from the package directory.
		traj, err := filepath.Abs(*loadBench)
		if err != nil {
			t.Fatal(err)
		}
		in, err := os.Open(bench)
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		cmd := exec.Command("go", "run", "./tools/benchjson", "-append", traj)
		cmd.Dir, cmd.Stdin, cmd.Stderr = repoRoot, in, os.Stderr
		out, err := cmd.Output()
		if err == nil {
			err = os.WriteFile(traj+".tmp", out, 0o644)
		}
		if err == nil {
			err = os.Rename(traj+".tmp", traj)
		}
		if err != nil {
			t.Fatalf("appending to %s: %v", traj, err)
		}
		t.Logf("appended seed 1's run to %s", traj)
	}
}

// sameTree requires the files under got to match those under want, name
// for name and byte for byte.
func sameTree(t *testing.T, want, got string) {
	t.Helper()
	files := map[string]bool{}
	for _, root := range []string{want, got} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range entries {
			files[f.Name()] = true
		}
	}
	for n := range files {
		a, errA := os.ReadFile(filepath.Join(want, n))
		b, errB := os.ReadFile(filepath.Join(got, n))
		if errA != nil || errB != nil {
			t.Errorf("%s present in only one of %s and %s", n, want, got)
			continue
		}
		sameBytes(t, filepath.Join(got, n), a, b)
	}
}

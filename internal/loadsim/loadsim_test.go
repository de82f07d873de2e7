package loadsim

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"smartfeat/internal/fm"
	"smartfeat/internal/grid"
	"smartfeat/internal/obs"
	"smartfeat/internal/retryafter"
	"smartfeat/internal/serve"
)

// fakeDaemon implements the smartfeatd wire API with controllable capacity,
// execution delay and injectable misbehavior, plus its own obs registry
// serving serve_*-named metrics — so loadsim's full loop, backoff and
// reconciliation run against deterministic semantics without grid compute.
type fakeDaemon struct {
	reg          *obs.Registry
	admitted     obs.Counter
	rejectedFull obs.Counter
	completed    obs.Counter
	failed       obs.Counter
	highWater    obs.Gauge

	execDelay  time.Duration
	retryAfter time.Duration
	costPerJob float64
	// driftAfter, when > 0, makes result bodies differ once a spec has been
	// served that many times — simulating a determinism-contract violation.
	driftAfter int
	// doubleCountAdmits injects reconciliation drift: the admit counter
	// moves by 2 per admission.
	doubleCountAdmits bool

	queue chan *fakeJob

	mu     sync.Mutex
	jobs   map[string]*fakeJob
	served map[string]int // spec fingerprint -> result serve count
}

type fakeJob struct {
	id   string
	spec grid.Spec

	mu     sync.Mutex
	status string
}

func (j *fakeJob) setStatus(s string) {
	j.mu.Lock()
	j.status = s
	j.mu.Unlock()
}

func (j *fakeJob) getStatus() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

func newFakeDaemon(t *testing.T, queueDepth, executors int, execDelay time.Duration) (*fakeDaemon, *httptest.Server) {
	t.Helper()
	d := &fakeDaemon{
		reg:        obs.NewRegistry(),
		execDelay:  execDelay,
		retryAfter: time.Second,
		queue:      make(chan *fakeJob, queueDepth),
		jobs:       make(map[string]*fakeJob),
		served:     make(map[string]int),
	}
	d.reg.RegisterCounter("serve_jobs_admitted_total", "", &d.admitted)
	d.reg.RegisterCounter("serve_jobs_rejected_total", "", &d.rejectedFull, "reason", "queue_full")
	d.reg.RegisterCounter("serve_jobs_completed_total", "", &d.completed)
	d.reg.RegisterCounter("serve_jobs_failed_total", "", &d.failed)
	d.reg.RegisterGauge("serve_queue_depth_high_water", "", &d.highWater)

	for i := 0; i < executors; i++ {
		go func() {
			for j := range d.queue {
				j.setStatus(serve.StatusRunning)
				time.Sleep(d.execDelay)
				j.setStatus(serve.StatusCompleted)
				d.completed.Inc()
			}
		}()
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", d.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", d.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", d.handleResult)
	mux.Handle("GET /metrics", obs.MetricsHandler(d.reg))
	ts := httptest.NewServer(mux)
	t.Cleanup(func() { ts.Close(); close(d.queue) })
	return d, ts
}

func (d *fakeDaemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string    `json:"name"`
		Spec grid.Spec `json:"spec"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	j := &fakeJob{id: req.Name, spec: req.Spec, status: serve.StatusQueued}
	select {
	case d.queue <- j:
	default:
		d.rejectedFull.Inc()
		retryafter.Set(w.Header(), d.retryAfter)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintf(w, `{"error":"admission queue full","retry_after":%d}`, retryafter.Seconds(d.retryAfter))
		return
	}
	d.mu.Lock()
	d.jobs[j.id] = j
	d.mu.Unlock()
	d.admitted.Inc()
	if d.doubleCountAdmits {
		d.admitted.Inc()
	}
	if depth := int64(len(d.queue)); depth > d.highWater.Value() {
		d.highWater.Set(depth)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(serve.JobView{ID: j.id, Status: j.getStatus()})
}

func (d *fakeDaemon) job(r *http.Request) *fakeJob {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.jobs[r.PathValue("id")]
}

func (d *fakeDaemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := d.job(r)
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	view := serve.JobView{ID: j.id, Status: j.getStatus()}
	if view.Status == serve.StatusCompleted {
		view.Cells = grid.Progress{Planned: 1, Completed: 1, Cells: map[string]string{"cell-0": "completed"}}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(view)
}

func (d *fakeDaemon) handleResult(w http.ResponseWriter, r *http.Request) {
	j := d.job(r)
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	if cell := r.URL.Query().Get("cell"); cell != "" {
		art := grid.Artifact{Kind: "method", Method: &grid.MethodArtifact{FMUsage: fm.Usage{Calls: 1, SimCostUSD: d.costPerJob}}}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(art)
		return
	}
	key, _ := json.Marshal(j.spec)
	d.mu.Lock()
	d.served[string(key)]++
	n := d.served[string(key)]
	d.mu.Unlock()
	body := fmt.Sprintf("result for %s\n", key)
	if d.driftAfter > 0 && n > d.driftAfter {
		body = fmt.Sprintf("DRIFTED result for %s (serve %d)\n", key, n)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, body)
}

func testSpecs() []grid.Spec {
	return []grid.Spec{
		{Table: 4, Quick: true, Datasets: []string{"Diabetes"}},
		{Table: 4, Quick: true, Datasets: []string{"Diabetes"}, Methods: []string{"SMARTFEAT"}},
	}
}

func TestClosedLoopHappyPath(t *testing.T) {
	d, ts := newFakeDaemon(t, 16, 2, 5*time.Millisecond)
	d.costPerJob = 0.01
	rep, err := Run(context.Background(), Config{
		BaseURL:    ts.URL,
		Specs:      testSpecs(),
		Tenants:    2,
		Clients:    2,
		Ops:        8,
		Seed:       1,
		FetchSpend: true,
		Strict:     true,
		OutDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Completed != 8 || rep.Admitted != 8 || rep.Failed != 0 {
		t.Fatalf("completed/admitted/failed = %d/%d/%d, want 8/8/0", rep.Completed, rep.Admitted, rep.Failed)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("findings = %+v, want none", rep.Findings)
	}
	if rep.DistinctTables != 2 {
		t.Errorf("distinct tables = %d, want 2", rep.DistinctTables)
	}
	var tenantSum int64
	for _, tr := range rep.PerTenant {
		tenantSum += tr.Completed
	}
	if tenantSum != 8 {
		t.Errorf("per-tenant completions sum = %d, want 8", tenantSum)
	}
	if got, want := rep.SimCostUSD, 0.08; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("sim spend = %g, want %g (8 jobs x $0.01)", got, want)
	}
	if q := rep.Endpoints[epSubmit]; q.Count != 8 || q.P999 < q.P50 {
		t.Errorf("submit quantiles implausible: %+v", q)
	}
}

func TestBackpressureHonorsRetryAfter(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps through real Retry-After hints")
	}
	d, ts := newFakeDaemon(t, 1, 1, 20*time.Millisecond)
	start := time.Now()
	rep, err := Run(context.Background(), Config{
		BaseURL: ts.URL,
		Specs:   testSpecs(),
		Tenants: 1,
		Clients: 3,
		Ops:     6,
		Seed:    2,
		Strict:  true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Completed != 6 {
		t.Fatalf("completed = %d, want 6", rep.Completed)
	}
	if rep.Rejected == 0 || rep.Retries == 0 {
		t.Fatalf("rejected/retries = %d/%d, want both > 0 (capacity 1 against 3 clients)", rep.Rejected, rep.Retries)
	}
	if rep.Rejected != int64(d.rejectedFull.Value()) {
		t.Fatalf("client saw %d rejections, server counted %d", rep.Rejected, d.rejectedFull.Value())
	}
	// Each retry honored a >= 1s Retry-After hint, so the run must have
	// taken at least one hint's worth of wall clock.
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("run finished in %s despite %d retries against a 1s Retry-After", elapsed, rep.Retries)
	}
	if rep.QueueHighWater < 1 {
		t.Errorf("queue high-water = %d, want >= 1", rep.QueueHighWater)
	}
}

func TestResultDriftIsAFinding(t *testing.T) {
	d, ts := newFakeDaemon(t, 16, 2, time.Millisecond)
	d.driftAfter = 1 // every re-serve of a spec differs from its first serve
	rep, err := Run(context.Background(), Config{
		BaseURL: ts.URL,
		Specs:   testSpecs()[:1],
		Clients: 1,
		Ops:     3,
		Seed:    3,
		Strict:  true,
	})
	if err == nil {
		t.Fatal("strict run with result drift returned nil error")
	}
	if rep == nil {
		t.Fatal("strict failure must still return the report")
	}
	var drifts int
	for _, f := range rep.Findings {
		if f.Kind == "result-drift" {
			drifts++
		}
	}
	if drifts != 2 {
		t.Fatalf("result-drift findings = %d (of %+v), want 2 (ops 2 and 3 differ from op 1)", drifts, rep.Findings)
	}
}

func TestReconciliationCatchesServerDrift(t *testing.T) {
	d, ts := newFakeDaemon(t, 16, 2, time.Millisecond)
	d.doubleCountAdmits = true
	rep, err := Run(context.Background(), Config{
		BaseURL: ts.URL,
		Specs:   testSpecs(),
		Clients: 2,
		Ops:     4,
		Seed:    4,
		Strict:  true,
	})
	if err == nil {
		t.Fatal("strict run with counter drift returned nil error")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == "reconcile-drift" && strings.Contains(f.Metric, "admitted") {
			found = true
			if f.Server != 8 || f.Client != 4 {
				t.Errorf("drift finding = server %g / client %g, want 8 / 4", f.Server, f.Client)
			}
		}
	}
	if !found {
		t.Fatalf("no admitted-counter drift finding in %+v", rep.Findings)
	}
}

func TestOpenLoopSmoke(t *testing.T) {
	_, ts := newFakeDaemon(t, 32, 4, time.Millisecond)
	rep, err := Run(context.Background(), Config{
		BaseURL: ts.URL,
		Specs:   testSpecs(),
		Tenants: 2,
		Ops:     6,
		Rate:    200,
		Seed:    5,
		Strict:  true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Completed != 6 {
		t.Fatalf("completed = %d, want 6", rep.Completed)
	}
	if rep.Rate != 200 {
		t.Errorf("report rate = %g, want 200", rep.Rate)
	}
}

// TestReportMachineReadable pins the report's two serialized faces: the JSON
// must be valid (no NaN leaks from idle histograms) and the bench lines must
// parse under tools/benchjson's go-bench line grammar.
func TestReportMachineReadable(t *testing.T) {
	_, ts := newFakeDaemon(t, 16, 2, time.Millisecond)
	out := t.TempDir()
	rep, err := Run(context.Background(), Config{
		BaseURL: ts.URL,
		Specs:   testSpecs()[:1],
		Clients: 1,
		Ops:     2,
		Seed:    6,
		Strict:  true,
		OutDir:  out,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
	if !json.Valid(data) {
		t.Fatal("report JSON invalid")
	}
	benchLine := regexp.MustCompile(`^BenchmarkLoadsim/\S+ \d+ \d+ ns/op$`)
	var benchCount int
	for _, line := range strings.Split(strings.TrimSpace(rep.BenchLines()), "\n") {
		if strings.HasPrefix(line, "Benchmark") {
			benchCount++
			if !benchLine.MatchString(line) {
				t.Errorf("bench line %q does not parse as go-bench output", line)
			}
		}
	}
	if benchCount == 0 {
		t.Fatal("BenchLines emitted no benchmark lines")
	}
	if tbl := rep.Table(); !strings.Contains(tbl, "findings: none") {
		t.Errorf("clean run's table missing findings line:\n%s", tbl)
	}
}

func TestRollingWindow(t *testing.T) {
	r := newRollingStats(3 * time.Second)
	base := time.Unix(1000, 0)
	r.record(base, 100*time.Millisecond, false)
	r.record(base.Add(time.Second), 300*time.Millisecond, true)
	rate, mean, errRate := r.snapshot(base.Add(time.Second))
	if rate <= 0 || mean <= 0 {
		t.Fatalf("rate/mean = %g/%g, want > 0", rate, mean)
	}
	if errRate != 0.5 {
		t.Errorf("errRate = %g, want 0.5", errRate)
	}
	// Both events age out of the window.
	rate, _, _ = r.snapshot(base.Add(10 * time.Second))
	if rate != 0 {
		t.Errorf("rate after window = %g, want 0 (events aged out)", rate)
	}
	// A ring slot is reclaimed when its second comes round again.
	r.record(base.Add(9*time.Second), 50*time.Millisecond, false)
	rate, _, _ = r.snapshot(base.Add(9 * time.Second))
	if rate != 1.0/3.0 {
		t.Errorf("rate after reclaim = %g, want 1/3", rate)
	}
}

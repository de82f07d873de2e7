// Package serve is smartfeatd's HTTP/JSON serving layer: the front door that
// turns the repo's one-shot evaluation machinery into a long-running,
// multi-tenant job service.
//
// A daemon (cmd/smartfeatd) wraps one Server. Clients submit
// feature-construction/grid jobs (POST /v1/jobs), poll status with live
// per-cell progress folded from the run-directory manifest
// (GET /v1/jobs/{id}), and fetch results — the folded tables, byte-identical
// to the experiments CLI's stdout for the same selection — once the job
// completes (GET /v1/jobs/{id}/result). /healthz serves liveness (503 while
// draining) and /metrics serves the process obs registry, serve_* series
// included.
//
// Admission is a bounded in-memory queue with per-tenant round-robin
// fairness keyed on the X-Tenant header: a saturating tenant delays others
// by at most one job each, and a full queue rejects with 429 + Retry-After
// instead of buffering unboundedly. Draining (SIGTERM in the daemon) stops
// admission, cancels queued jobs, and finishes — or, past the drain
// timeout, interrupts, lease-releasing their claimed cells — in-flight
// jobs before Shutdown returns.
//
// Jobs execute through the existing grid engine: each job is a
// grid.Selection plan run by a grid.Runner in worker mode against
// <run-root>/<job-id>. Because cell acquisition goes through the lease
// protocol, N daemon replicas pointed at one run root that receive the same
// job (same ID, same spec) drain it cooperatively — each executes only the
// cells it claims, both fold the full result. Record/replay carries over
// from the CLI: a replay-backed daemon serves whole jobs at $0 simulated
// cost, which is how CI exercises this package hermetically.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smartfeat/internal/fmgate"
	"smartfeat/internal/grid"
	"smartfeat/internal/jsonio"
	"smartfeat/internal/obs"
	"smartfeat/internal/retryafter"
)

// Options configures a Server.
type Options struct {
	// RunRoot is the shared job store: each job runs in <RunRoot>/<job-id>.
	// Replicas cooperating on jobs must share it (same filesystem).
	RunRoot string
	// QueueDepth bounds the number of queued (not yet running) jobs; a full
	// queue rejects submissions with 429 (0 = 64).
	QueueDepth int
	// Executors is the number of jobs run concurrently (0 = 1). Each job's
	// internal cell parallelism is the job spec's Workers knob.
	Executors int
	// Worker is this replica's lease identity. Replicas sharing a run root
	// need distinct ids (0 = "smartfeatd-<pid>").
	Worker string
	// LeaseTTL is the staleness threshold for peer replicas' cell leases
	// (0 = lease.DefaultTTL).
	LeaseTTL time.Duration
	// RetryAfter is the backoff hint attached to 429 responses (0 = 2s).
	RetryAfter time.Duration
	// FMReplayDir serves every job's FM traffic from this sharded recording
	// at $0 simulated cost. Submissions whose configuration or cell plan the
	// recording does not cover are rejected up front with 400.
	FMReplayDir string
	// RecordFM records each job's FM traffic into <job-dir>/fm (ignored
	// with FMReplayDir).
	RecordFM bool
	// FMCacheDir mounts the cross-process completion-cache tier on every
	// job whose config hash matches the directory (mismatching jobs run
	// uncached). Ignored with FMReplayDir (redundant).
	FMCacheDir string
	// FMPool, when set, routes every job's FM traffic through a resilient
	// backend pool (circuit breakers, hedging, injected faults — the chaos
	// transport layer). Each job gets a copy seeded with its own config
	// seed so fault sequences are deterministic per job. PoolSpec is
	// transport-only and excluded from config fingerprints, so a
	// replay-backed daemon with a faulted pool still serves byte-identical
	// results — which is exactly what the load simulator leans on.
	FMPool *fmgate.PoolSpec
	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// serveObs are the daemon's contributors to the process obs registry.
type serveObs struct {
	queueDepth       obs.Gauge
	queueHighWater   obs.Gauge
	running          obs.Gauge
	admitted         obs.Counter
	rejectedFull     obs.Counter
	rejectedDraining obs.Counter
	completed        obs.Counter
	failed           obs.Counter
	canceled         obs.Counter
	reqSeconds       *obs.Histogram
}

func newServeObs() *serveObs {
	so := &serveObs{reqSeconds: obs.NewHistogram(obs.TimeBuckets...)}
	reg := obs.Default
	reg.RegisterGauge("serve_queue_depth", "Jobs waiting in the admission queue.", &so.queueDepth)
	reg.RegisterGauge("serve_queue_depth_high_water", "Deepest the admission queue has been this process.", &so.queueHighWater)
	reg.RegisterGauge("serve_jobs_running", "Jobs currently executing.", &so.running)
	reg.RegisterCounter("serve_jobs_admitted_total", "Jobs admitted into the queue.", &so.admitted)
	reg.RegisterCounter("serve_jobs_rejected_total", "Jobs rejected at admission, by reason.", &so.rejectedFull, "reason", "queue_full")
	reg.RegisterCounter("serve_jobs_rejected_total", "Jobs rejected at admission, by reason.", &so.rejectedDraining, "reason", "draining")
	reg.RegisterCounter("serve_jobs_completed_total", "Jobs finished successfully.", &so.completed)
	reg.RegisterCounter("serve_jobs_failed_total", "Jobs finished in failure.", &so.failed)
	reg.RegisterCounter("serve_jobs_canceled_total", "Jobs canceled (drain or shutdown).", &so.canceled)
	reg.RegisterHistogram("serve_request_seconds", "HTTP request latency.", so.reqSeconds)
	return so
}

// Server is the smartfeatd serving core: admission queue, job store,
// executor pool and HTTP API. Create with NewServer, mount Handler on a
// listener, and call Shutdown to drain.
type Server struct {
	opts  Options
	queue *admitQueue
	obs   *serveObs
	mux   *http.ServeMux

	mu   sync.Mutex
	jobs map[string]*Job
	seq  int

	draining atomic.Bool
	drainOne sync.Once     // Shutdown's one-shot half (cancel queue, close stop)
	stop     chan struct{} // closed by Shutdown: executors exit once idle
	wake     chan struct{} // pulsed on push: wakes an idle executor
	execWG   sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// execute runs one job to completion, returning the folded tables.
	// Overridable in tests to pin queue behavior without paying for real
	// cells.
	execute func(ctx context.Context, j *Job) (string, error)
}

// NewServer builds a Server and starts its executor pool. The caller owns
// the HTTP listener (mount Handler) and must call Shutdown.
func NewServer(opts Options) (*Server, error) {
	if opts.RunRoot == "" {
		return nil, errors.New("serve: Options.RunRoot is required (the run root is the job store)")
	}
	if err := os.MkdirAll(opts.RunRoot, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating run root: %w", err)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Executors <= 0 {
		opts.Executors = 1
	}
	if opts.Worker == "" {
		opts.Worker = fmt.Sprintf("smartfeatd-%d", os.Getpid())
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = 2 * time.Second
	}
	s := &Server{
		opts:  opts,
		queue: newAdmitQueue(opts.QueueDepth),
		obs:   newServeObs(),
		jobs:  make(map[string]*Job),
		stop:  make(chan struct{}),
		wake:  make(chan struct{}, 1),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.execute = s.executeJob
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", obs.MetricsHandler(obs.Default))
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	for i := 0; i < opts.Executors; i++ {
		s.execWG.Add(1)
		go s.executor()
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler (all endpoints, wrapped in the
// request-latency instrumentation).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.mux.ServeHTTP(w, r)
		s.obs.reqSeconds.ObserveDuration(time.Since(start))
	})
}

// Job returns a submitted job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Options returns the server's resolved options (defaults applied).
func (s *Server) Options() Options { return s.opts }

// Shutdown drains the server: admission stops (503), queued jobs are
// canceled, and in-flight jobs run to completion. If ctx expires first the
// in-flight jobs are interrupted — their runners release claimed cell
// leases and leave resumable run directories — and Shutdown reports
// ctx's error after they unwind. Safe to call more than once; every call
// waits for the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOne.Do(func() {
		s.draining.Store(true)
		for _, j := range s.queue.drain() {
			j.finish(StatusCanceled, "", "canceled: daemon draining")
			s.obs.canceled.Inc()
			s.logf("job %s canceled (drain)", j.ID)
		}
		s.obs.queueDepth.Set(0)
		close(s.stop)
	})

	idle := make(chan struct{})
	go func() { s.execWG.Wait(); close(idle) }()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.Status() == StatusRunning {
				s.logf("job %s interrupted (drain timeout)", j.ID)
				j.interrupt()
			}
		}
		s.mu.Unlock()
		<-idle
	}
	s.baseCancel()
	return err
}

// executor pulls jobs off the admission queue until the server drains.
func (s *Server) executor() {
	defer s.execWG.Done()
	for {
		j := s.queue.pop()
		if j == nil {
			select {
			case <-s.wake:
				continue
			case <-s.stop:
				// Drain: the queue was emptied before stop closed, but a
				// last push may have raced the drain — clear stragglers.
				for j := s.queue.pop(); j != nil; j = s.queue.pop() {
					j.finish(StatusCanceled, "", "canceled: daemon draining")
					s.obs.canceled.Inc()
				}
				return
			}
		}
		s.obs.queueDepth.Set(int64(s.queue.len()))
		s.runJob(j)
	}
}

// runJob executes one job and records its terminal status.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.setRunning(cancel)
	s.obs.running.Add(1)
	defer s.obs.running.Add(-1)
	s.logf("job %s running (%d cells, tenant %s)", j.ID, len(j.plan), j.Tenant)
	result, err := s.execute(ctx, j)
	switch {
	case err == nil:
		j.finish(StatusCompleted, result, "")
		s.obs.completed.Inc()
		s.logf("job %s completed", j.ID)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(StatusCanceled, "", err.Error())
		s.obs.canceled.Inc()
		s.logf("job %s canceled mid-run", j.ID)
	default:
		j.finish(StatusFailed, "", err.Error())
		s.obs.failed.Inc()
		s.logf("job %s FAILED: %v", j.ID, err)
	}
}

// executeJob runs one job through the grid engine in worker mode — the
// per-job twin of cmd/experiments' runGrid: wire FM stores, run the plan,
// fold the selection. The job's run directory joins any manifest a peer
// replica already started (matching config hash), so replicas sharing a run
// root partition the job's cells through the lease protocol.
func (s *Server) executeJob(ctx context.Context, j *Job) (string, error) {
	cfg := j.Spec.Config()
	if s.opts.FMPool != nil {
		// Per-job copy: the pool spec's fault sequences are seeded with the
		// job's own config seed, so identical jobs draw identical faults no
		// matter which executor (or replica) runs them.
		spec := *s.opts.FMPool
		spec.Seed = cfg.Seed
		cfg.FMPool = &spec
	}
	recordDir := ""
	if s.opts.RecordFM {
		recordDir = filepath.Join(j.dir, "fm")
	}
	stores, err := grid.OpenStores(cfg, recordDir, s.opts.FMReplayDir)
	if err != nil {
		return "", err
	}
	if stores != nil {
		defer stores.Close()
	}
	runner := &grid.Runner{
		Config:   cfg,
		Dir:      j.dir,
		Name:     j.ID,
		Stores:   stores,
		Worker:   s.opts.Worker,
		LeaseTTL: s.opts.LeaseTTL,
		Logf: func(format string, args ...any) {
			s.logf("job %s: "+format, append([]any{j.ID}, args...)...)
		},
	}
	if s.opts.FMCacheDir != "" && s.opts.FMReplayDir == "" {
		dc, err := fmgate.OpenDiskCache(s.opts.FMCacheDir, fmgate.DiskCacheOptions{
			ConfigHash: cfg.Fingerprint(),
			Worker:     s.opts.Worker,
			Live:       !s.opts.RecordFM,
			LockTTL:    s.opts.LeaseTTL,
		})
		switch {
		case err == nil:
			defer dc.Close()
			runner.Config.FMDiskCache = dc
		case errors.Is(err, fmgate.ErrStoreSetConfigMismatch):
			// The cache dir serves a different configuration; this job just
			// runs uncached rather than failing.
			s.logf("job %s: cache dir skipped: %v", j.ID, err)
		default:
			return "", err
		}
	}
	res, runErr := runner.Run(ctx, j.plan)
	if runErr != nil {
		return "", runErr
	}
	var buf bytes.Buffer
	j.Spec.Selection().Render(&buf, res, j.Spec.DatasetNames(), cfg, "")
	return buf.String(), nil
}

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	// Name, when set, becomes the job ID (and run-directory name) —
	// resubmitting an identical (name, spec) pair is idempotent, and the
	// same pair submitted to a peer replica makes both replicas drain one
	// run directory cooperatively. Empty names get a generated ID.
	Name string    `json:"name,omitempty"`
	Spec grid.Spec `json:"spec"`
}

// maxSubmitBytes bounds a submit body. A job spec is a few hundred bytes;
// a larger body is refused with 413 before it is buffered.
const maxSubmitBytes = 1 << 20

// decodeSubmit decodes and validates a POST /v1/jobs body. Unknown fields
// are refused: a misspelled restriction must not widen the job. A refusal
// comes with its HTTP status: 413 for a body over maxSubmitBytes (when body
// is an http.MaxBytesReader), 400 otherwise.
func decodeSubmit(body io.Reader) (submitRequest, int, error) {
	var req submitRequest
	if err := jsonio.DecodeStrict(body, &req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return req, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooBig.Limit)
		}
		return req, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	if err := req.Spec.Validate(); err != nil {
		return req, http.StatusBadRequest, err
	}
	if req.Spec.Figure == 2 {
		return req, http.StatusBadRequest, errors.New("figure 2 (the walkthrough) is not cell-addressed; run it with the experiments CLI")
	}
	return req, 0, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.obs.rejectedDraining.Inc()
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining: not admitting jobs"})
		return
	}
	req, code, err := decodeSubmit(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	spec := req.Spec.Canonical()
	plan := spec.Plan()
	if err := s.checkReplayCoverage(spec, plan); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}

	s.mu.Lock()
	id := sanitizeID(req.Name)
	if id == "" {
		s.seq++
		id = fmt.Sprintf("job-%06d", s.seq)
	}
	if existing, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		if !reflect.DeepEqual(existing.Spec, spec) {
			writeJSON(w, http.StatusConflict, map[string]string{
				"error": fmt.Sprintf("job %q already exists with a different spec", id)})
			return
		}
		// Idempotent resubmit: same name, same canonical spec — report the
		// job as-is.
		writeJSON(w, http.StatusOK, existing.view())
		return
	}
	j := &Job{
		ID:          id,
		Tenant:      tenant,
		Spec:        spec,
		status:      StatusQueued,
		submittedAt: time.Now(),
		plan:        plan,
		dir:         filepath.Join(s.opts.RunRoot, id),
	}
	s.jobs[id] = j
	s.mu.Unlock()

	if !s.queue.push(j) {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		s.obs.rejectedFull.Inc()
		secs := retryafter.Seconds(s.opts.RetryAfter)
		retryafter.Set(w.Header(), s.opts.RetryAfter)
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":       fmt.Sprintf("admission queue full (%d queued)", s.queue.len()),
			"retry_after": secs,
		})
		return
	}
	s.obs.admitted.Inc()
	s.obs.queueDepth.Set(int64(s.queue.len()))
	s.obs.queueHighWater.Set(int64(s.queue.highWater()))
	select {
	case s.wake <- struct{}{}:
	default:
	}
	s.logf("job %s admitted (%d cells, tenant %s)", id, len(plan), tenant)
	writeJSON(w, http.StatusAccepted, j.view())
}

// checkReplayCoverage refuses — at submit time — jobs a replay-backed daemon
// cannot serve: a config fingerprint the recording was not made under, or
// plan cells it holds no shards for.
func (s *Server) checkReplayCoverage(spec grid.Spec, plan []grid.Cell) error {
	if s.opts.FMReplayDir == "" {
		return nil
	}
	stores, err := grid.OpenStores(spec.Config(), "", s.opts.FMReplayDir)
	if err != nil {
		return err
	}
	defer stores.Close()
	keys := make([]string, len(plan))
	for i, c := range plan {
		keys[i] = c.Key()
	}
	if missing := stores.Covers(keys); len(missing) > 0 {
		return fmt.Errorf("recording %s does not cover %d of the job's cells (first missing: %s)",
			s.opts.FMReplayDir, len(missing), missing[0])
	}
	return nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": sortedViews(jobs)})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	if cell := r.URL.Query().Get("cell"); cell != "" {
		s.serveArtifact(w, j, cell)
		return
	}
	switch j.Status() {
	case StatusCompleted:
		result, _ := j.Result()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(result))
	case StatusQueued, StatusRunning:
		writeJSON(w, http.StatusAccepted, j.view())
	case StatusCanceled:
		writeJSON(w, http.StatusGone, j.view())
	default: // failed
		writeJSON(w, http.StatusInternalServerError, j.view())
	}
}

// serveArtifact streams one completed cell's raw artifact JSON out of the
// job's run directory — the per-cell ledger behind the folded tables.
func (s *Server) serveArtifact(w http.ResponseWriter, j *Job, cell string) {
	for _, c := range j.plan {
		if c.Key() == cell {
			raw, err := os.ReadFile(filepath.Join(j.dir, cell+".json"))
			if err != nil {
				writeJSON(w, http.StatusNotFound, map[string]string{
					"error": fmt.Sprintf("cell %s has no artifact yet", cell)})
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(raw)
			return
		}
	}
	writeJSON(w, http.StatusBadRequest, map[string]string{
		"error": fmt.Sprintf("cell %q is not in the job's plan", cell)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	s.mu.Lock()
	total := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, code, map[string]any{
		"status":      status,
		"queue_depth": s.queue.len(),
		"jobs":        total,
		"worker":      s.opts.Worker,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// String renders the options for startup logging.
func (o Options) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run-root=%s queue-depth=%d executors=%d worker=%s", o.RunRoot, o.QueueDepth, o.Executors, o.Worker)
	if o.FMReplayDir != "" {
		fmt.Fprintf(&b, " fm-replay=%s", o.FMReplayDir)
	}
	if o.RecordFM {
		b.WriteString(" fm-record")
	}
	if o.FMCacheDir != "" {
		fmt.Fprintf(&b, " fm-cache-dir=%s", o.FMCacheDir)
	}
	if o.FMPool != nil {
		fmt.Fprintf(&b, " fm-backends=%d", o.FMPool.Backends)
		if !o.FMPool.Faults.Empty() {
			b.WriteString(" fm-faults")
		}
	}
	return b.String()
}

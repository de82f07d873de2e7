// Command smartfeatd serves feature-construction/grid jobs over HTTP — the
// long-running front door onto the machinery cmd/experiments drives one-shot.
//
// Usage:
//
//	smartfeatd -addr :8080 -run-root runs/
//
// # API
//
//	POST /v1/jobs             submit a job: {"name": "t4", "spec": {"table": 4,
//	                          "quick": true, "datasets": ["Diabetes"]}}. The
//	                          spec mirrors the experiments CLI's flags (table,
//	                          figure, efficiency, descriptions, all, quick,
//	                          seed, datasets, methods, models, workers).
//	                          202 on admission, 200 on an idempotent resubmit,
//	                          400 on a bad spec, 429 + Retry-After when the
//	                          admission queue is full, 503 while draining.
//	                          The X-Tenant header keys per-tenant round-robin
//	                          fairness in the queue.
//	GET  /v1/jobs             list jobs
//	GET  /v1/jobs/{id}        status, with per-cell progress folded live from
//	                          the job's run-directory manifest
//	GET  /v1/jobs/{id}/result the folded tables (text/plain) once completed —
//	                          byte-identical to the experiments CLI's stdout
//	                          for the same selection; ?cell=KEY streams one
//	                          cell's raw artifact JSON instead
//	GET  /healthz             liveness (503 while draining)
//	GET  /metrics             the process obs registry (Prometheus text;
//	                          ?format=json), serve_* series included
//
// # Jobs and the run root
//
// Each job executes through the grid engine in worker mode against
// <run-root>/<job-id>: per-cell artifacts, a progress manifest, leases. The
// run root is therefore the daemon's durable job store — a daemon restarted
// onto the same root re-serves completed cells from their artifacts — and
// its shared medium: N replicas pointed at one root that receive the same
// (name, spec) submission drain that job cooperatively, each executing only
// the cells it claims under the lease protocol. Distinct replicas need
// distinct -worker ids.
//
// # Record/replay
//
// -fm-replay DIR serves every job's FM traffic from a sharded recording
// (made with experiments -fm-record) at $0 simulated cost; submissions the
// recording cannot cover are rejected with 400 up front. -fm-record records
// each job's traffic into <job-dir>/fm. -fm-cache-dir mounts the
// cross-process completion-cache tier for jobs whose config hash matches
// the directory. A replay-backed daemon is fully hermetic — CI's
// `make serve-check` starts one, submits the quick grid, and byte-compares
// the served result against the sequential CLI golden.
//
// # Drain
//
// SIGTERM (or SIGINT) drains: admission stops (submits 503, /healthz 503),
// queued jobs are canceled, and in-flight jobs finish. Past -drain-timeout
// the in-flight jobs are interrupted instead — their runners release
// claimed cell leases and leave resumable run directories — and the daemon
// still exits 0: a drained interrupt is a clean exit, the work is simply
// left for a peer or a restart.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smartfeat/internal/fmgate"
	"smartfeat/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address (':0' picks a free port; the resolved address is logged)")
	runRoot := flag.String("run-root", "", "job store directory: each job runs in <run-root>/<job-id> (required; replicas cooperating on jobs share it)")
	queueDepth := flag.Int("queue-depth", 64, "admission-queue capacity; a full queue rejects submissions with 429 + Retry-After")
	executors := flag.Int("executors", 1, "jobs executed concurrently (each job's internal parallelism is its spec's workers knob)")
	worker := flag.String("worker", "", "this replica's lease identity; replicas sharing a run root need distinct ids (default smartfeatd-<pid>)")
	leaseTTL := flag.Duration("lease-ttl", 0, "staleness threshold for peer replicas' cell leases (0 = 30s)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight jobs before interrupting them (leases released, run dirs resumable)")
	retryAfter := flag.Duration("retry-after", 2*time.Second, "backoff hint attached to 429 responses")
	fmReplay := flag.String("fm-replay", "", "serve every job's FM traffic from this sharded recording directory at $0 simulated cost; uncoverable submissions are rejected with 400")
	fmRecord := flag.Bool("fm-record", false, "record each job's FM traffic into <job-dir>/fm (mutually exclusive with -fm-replay)")
	var fmf fmgate.Flags
	fmf.Register(flag.CommandLine)
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "smartfeatd: "+format+"\n", args...)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "smartfeatd:", err)
		os.Exit(1)
	}
	if *runRoot == "" {
		fmt.Fprintln(os.Stderr, "smartfeatd: -run-root is required (the run root is the job store)")
		os.Exit(2)
	}
	// The pool is transport-only, so it composes with -fm-replay (the
	// recording becomes the pool's content source); each job reseeds it with
	// its own config seed.
	poolSpec, err := fmf.Pool(0, *fmRecord, *fmReplay != "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "smartfeatd:", err)
		os.Exit(2)
	}

	s, err := serve.NewServer(serve.Options{
		RunRoot:     *runRoot,
		QueueDepth:  *queueDepth,
		Executors:   *executors,
		Worker:      *worker,
		LeaseTTL:    *leaseTTL,
		RetryAfter:  *retryAfter,
		FMReplayDir: *fmReplay,
		RecordFM:    *fmRecord,
		FMCacheDir:  fmf.CacheDir,
		FMPool:      poolSpec,
		Logf:        logf,
	})
	if err != nil {
		fail(err)
	}

	// The daemon serves the whole API — /metrics included — on one address;
	// binding before the startup line resolves ':0' to the actual port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fail(err)
		}
	}()
	logf("serving on http://%s (%s)", ln.Addr(), s.Options())

	// SIGTERM/SIGINT → drain: stop admitting, finish (or past -drain-timeout
	// interrupt and lease-release) in-flight jobs, then exit 0.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-sigCtx.Done()
	logf("drain: signal received; finishing in-flight jobs (timeout %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		logf("drain: in-flight jobs interrupted after %s (leases released, run dirs resumable)", *drainTimeout)
	} else {
		logf("drain: all jobs settled")
	}
	closeCtx, closeCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer closeCancel()
	_ = httpSrv.Shutdown(closeCtx)
	logf("exit")
}

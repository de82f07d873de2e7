package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"smartfeat/internal/experiments"
	"smartfeat/internal/fmgate"
	"smartfeat/internal/grid"
	"smartfeat/internal/loadsim"
	"smartfeat/internal/serve"
)

// serveDatasets are the small datasets of the serve jobs, one job spec each.
var serveDatasets = []string{"Tennis", "Diabetes"}

// serveOps is how many jobs one measured pass submits.
const serveOps = 16

// serveSpecs are the jobs loadsim submits, in the order given: Initial +
// SMARTFEAT on one small dataset each, in the quick configuration.
func serveSpecs(names []string) []serve.JobSpec {
	var out []serve.JobSpec
	for _, d := range names {
		out = append(out, serve.JobSpec{
			Table: 4, Quick: true,
			Datasets: []string{d}, Methods: []string{experiments.MethodSmartfeat},
		})
	}
	return out
}

// setupServe records the serve jobs' FM traffic and folds each spec's
// tables in process: the tables every served result must equal.
func setupServe(ctx context.Context, e env) (*childResult, error) {
	start := time.Now()
	cfg := e.config()
	stores, err := fmgate.NewRecordStoreSet(filepath.Join(e.shared, "fm"), fmgate.StoreSetManifest{
		ConfigHash: cfg.Fingerprint(),
		Seed:       cfg.Seed,
		Budget:     cfg.SamplingBudget,
	})
	if err != nil {
		return nil, err
	}
	var want bytes.Buffer
	for _, spec := range serveSpecs(serveDatasets) {
		sel := grid.Selection{Table: spec.Table}
		plan := sel.Plan(spec.Datasets, []string{experiments.MethodInitial, experiments.MethodSmartfeat})
		r := &grid.Runner{Config: cfg, Stores: stores}
		res, err := r.Run(ctx, plan)
		if err != nil {
			stores.Close()
			return nil, fmt.Errorf("recording %v: %w", spec.Datasets, err)
		}
		sel.Render(&want, res, spec.Datasets, cfg, "")
	}
	if err := stores.Close(); err != nil {
		return nil, err
	}
	return &childResult{SetupS: time.Since(start).Seconds(), Digest: digestOf(want.Bytes())}, nil
}

// measureServe starts an in-process replay-backed smartfeatd on a loopback
// listener and drives it closed-loop with loadsim, 2 tenants × 1 client, in
// strict mode. One op is one job, submit to result; the items are jobs.
func measureServe(ctx context.Context, e env) (*childResult, error) {
	res := newResult()
	start := time.Now()
	srv, err := serve.NewServer(serve.Options{
		RunRoot:     filepath.Join(e.dir, fmt.Sprintf("jobs-%d", os.Getpid())),
		FMReplayDir: filepath.Join(e.shared, "fm"),
		Worker:      "perfbench",
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		hs.Shutdown(sctx)
		<-served
	}()
	transport := &timedTransport{base: &http.Transport{MaxIdleConnsPerHost: 4}}
	outDir := filepath.Join(e.dir, fmt.Sprintf("loadsim-%d", os.Getpid()))
	// The seed orders the specs (and jitters loadsim's timing); the tables
	// fold in serveDatasets order.
	order := e.shuffled(serveDatasets)
	specs := serveSpecs(order)
	res.endSetup(start)

	ctx, tr := startTracing(ctx, e, "serve")
	rep, runErr := loadsim.Run(ctx, loadsim.Config{
		BaseURL:      "http://" + ln.Addr().String(),
		Specs:        specs,
		Tenants:      2,
		Clients:      1,
		Ops:          serveOps,
		Seed:         e.seed,
		RunID:        "bench",
		PollInterval: 20 * time.Millisecond,
		Strict:       true,
		OutDir:       outDir,
		HTTPClient:   &http.Client{Transport: transport},
	})
	if rep == nil {
		return nil, runErr
	}
	res.WallS = rep.ElapsedSeconds
	res.Items = float64(rep.Completed)
	res.Attempted = serveOps
	res.Failed = serveOps - int(rep.Completed)
	if runErr != nil {
		res.problem("serve: %v", runErr)
	}
	for _, f := range rep.Findings {
		res.problem("serve: loadsim finding: %s", f.Summary())
	}

	// The served tables, first seen per spec, in serveDatasets order: the
	// setup child's in-process fold of the same specs must be identical.
	byDataset := map[string][]byte{}
	for i, d := range order {
		b, err := os.ReadFile(filepath.Join(outDir, "tables", fmt.Sprintf("table-%02d.txt", i)))
		if err != nil {
			res.problem("serve: no served table for %s: %v", d, err)
			continue
		}
		byDataset[d] = b
	}
	var tables bytes.Buffer
	for _, d := range serveDatasets {
		tables.Write(byDataset[d])
	}
	res.Digest = digestOf(tables.Bytes())

	jobs := jobTimes(transport.calls())
	for _, j := range jobs {
		if j.done > 0 {
			res.Ops = append(res.Ops, j.done-j.submit)
		}
	}
	if len(res.Ops) != int(rep.Completed) {
		res.problem("serve: timed %d jobs, loadsim completed %d", len(res.Ops), rep.Completed)
	}

	if tr == nil {
		return res, nil
	}
	if _, _, err := tr.finish(res); err != nil {
		return nil, err
	}
	calls := transport.calls()
	byEndpoint := map[string][]float64{}
	var scrapes []float64
	for _, c := range calls {
		ep := endpointOf(c.method, c.path)
		byEndpoint[ep] = append(byEndpoint[ep], c.end-c.start)
		if ep == "obs.scrape" {
			scrapes = append(scrapes, c.end-c.start)
		}
	}
	res.Layer["serve.submit_p90_s"] = percentile(byEndpoint["serve.submit"], 90)
	res.Layer["serve.status_p90_s"] = percentile(byEndpoint["serve.status"], 90)
	res.Layer["serve.result_p50_s"] = percentile(byEndpoint["serve.result"], 50)
	var waits, execs []float64
	for _, j := range jobs {
		if j.running > 0 && j.finished > 0 {
			waits = append(waits, j.running-j.submit)
			execs = append(execs, j.finished-j.running)
		}
	}
	res.Layer["serve.queue_wait_p50_s"] = median(waits)
	res.Layer["serve.exec_p50_s"] = median(execs)
	res.Layer["serve.job_p50_s"] = median(res.Ops)
	res.Layer["serve.queue_hw"] = float64(rep.QueueHighWater)
	res.Layer["serve.rejected"] = float64(rep.Rejected)
	if len(scrapes) > 0 {
		res.Layer["obs.scrape_start_s"] = scrapes[0]
		res.Layer["obs.scrape_end_s"] = scrapes[len(scrapes)-1]
	}
	return res, nil
}

// jobTiming is one job's client-observed lifecycle, in seconds since clock:
// when it was submitted, first seen running, first seen finished, and when
// its result arrived.
type jobTiming struct{ submit, running, finished, done float64 }

// jobTimes folds the client's request log into per-job lifecycles. Status
// transitions are observed at the poll that first reports them, so running
// and finished are late by at most one poll interval.
func jobTimes(calls []httpCall) map[string]*jobTiming {
	jobs := map[string]*jobTiming{}
	get := func(id string) *jobTiming {
		if jobs[id] == nil {
			jobs[id] = &jobTiming{}
		}
		return jobs[id]
	}
	for _, c := range calls {
		switch {
		case c.method == http.MethodPost:
			// Keyed by the requested name, which the daemon keeps as the
			// job id, so a submit retried after a 429 counts from its
			// first attempt.
			if j := get(c.jobName); c.jobName != "" && j.submit == 0 {
				j.submit = c.start
			}
		case strings.HasSuffix(c.path, "/result") && c.status == http.StatusOK:
			id := strings.TrimSuffix(strings.TrimPrefix(c.path, "/v1/jobs/"), "/result")
			if j := get(id); j.done == 0 {
				j.done = c.end
			}
		case strings.HasPrefix(c.path, "/v1/jobs/") && c.status == http.StatusOK:
			var v serve.JobView
			if json.Unmarshal(c.body, &v) != nil {
				continue
			}
			j := get(v.ID)
			switch v.Status {
			case serve.StatusRunning:
				if j.running == 0 {
					j.running = c.end
				}
			case serve.StatusCompleted, serve.StatusFailed, serve.StatusCanceled:
				if j.running == 0 {
					j.running = c.end // ran entirely between two polls
				}
				if j.finished == 0 {
					j.finished = c.end
				}
			}
		}
	}
	for id, j := range jobs {
		if j.submit == 0 {
			delete(jobs, id)
		}
	}
	return jobs
}

// Command loadsim drives a smartfeatd daemon with a deterministic synthetic
// workload and audits what comes back: per-endpoint latency distributions
// to p99.9, per-tenant fairness, Retry-After-honoring backoff accounting, a
// byte-identity check on every served result, and a /metrics reconciliation
// pass cross-checking the daemon's serve_* counters against the client's
// own ledger. Any drift is a finding; -strict turns findings into exit 1.
//
// Usage:
//
//	loadsim -addr http://127.0.0.1:8080 \
//	    -spec '{"table":4,"quick":true,"datasets":["Diabetes"]}' \
//	    -spec '{"table":4,"quick":true,"datasets":["Diabetes"],"methods":["SMARTFEAT"]}' \
//	    -tenants 2 -clients 2 -ops 12 -seed 1 -strict -out simrun/
//
// Op k submits spec k%N of the N -spec values — by op index, not RNG — so
// two runs with different -seed values submit the same spec multiset and
// their result tables must be byte-identical (the seed perturbs arrival and
// think timing only). This is the invariant the sim_soak end-to-end check
// (internal/e2e) asserts across seeds.
//
// -rate R switches from the closed loop (tenants×clients workers, one op in
// flight each) to open-loop Poisson arrivals at R ops/sec. -out DIR writes
// load_report.json plus tables/table-NN.txt; -bench FILE appends the run as
// go-bench-format lines for tools/benchjson. -metrics-addr serves this
// process's own obs registry (loadsim_* series) while the run is going.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"smartfeat/internal/loadsim"
	"smartfeat/internal/obs"
	"smartfeat/internal/serve"
)

// specFlag collects repeatable -spec values.
type specFlag struct {
	specs []serve.JobSpec
}

func (f *specFlag) String() string { return fmt.Sprintf("%d specs", len(f.specs)) }

func (f *specFlag) Set(v string) error {
	var spec serve.JobSpec
	dec := json.NewDecoder(strings.NewReader(v))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("bad spec %q: %w", v, err)
	}
	f.specs = append(f.specs, spec)
	return nil
}

func main() {
	var specs specFlag
	addr := flag.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	flag.Var(&specs, "spec", "job spec as inline JSON (repeatable; op k submits spec k%N)")
	tenants := flag.Int("tenants", 1, "synthetic tenant count (X-Tenant: sim-t0..)")
	clients := flag.Int("clients", 1, "closed-loop workers per tenant")
	ops := flag.Int("ops", 0, "total submit operations (0 = one per -spec)")
	rate := flag.Float64("rate", 0, "open-loop Poisson arrival rate in ops/sec (0 = closed loop)")
	think := flag.Duration("think", 0, "post-completion think time per worker (jittered ±50%)")
	seed := flag.Int64("seed", 1, "workload RNG seed — timing only, never spec selection")
	retries := flag.Int("retries", 0, "per-op 429/503 retry budget (0 = default 8)")
	spend := flag.Bool("spend", true, "walk completed jobs' artifacts to sum simulated FM spend")
	strict := flag.Bool("strict", false, "exit 1 when the run produces findings (result drift, reconciliation drift, exhausted backoff)")
	out := flag.String("out", "", "output directory for load_report.json and tables/")
	bench := flag.String("bench", "", "append the run as go-bench-format lines to this file (for tools/benchjson)")
	metricsAddr := flag.String("metrics-addr", "", "serve this process's own /metrics (loadsim_* series) on this address during the run")
	quiet := flag.Bool("q", false, "suppress the live progress line")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "loadsim:", err)
		os.Exit(1)
	}
	if len(specs.specs) == 0 {
		fmt.Fprintln(os.Stderr, "loadsim: at least one -spec is required")
		os.Exit(2)
	}

	if *metricsAddr != "" {
		srv, err := obs.ListenAndServe(*metricsAddr, obs.Default)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "loadsim: metrics on http://%s/metrics\n", srv.Addr)
	}

	cfg := loadsim.Config{
		BaseURL:    *addr,
		Specs:      specs.specs,
		Tenants:    *tenants,
		Clients:    *clients,
		Ops:        *ops,
		Rate:       *rate,
		Think:      *think,
		Seed:       *seed,
		MaxRetries: *retries,
		FetchSpend: *spend,
		Strict:     *strict,
		OutDir:     *out,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "loadsim: "+format+"\n", args...)
		},
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	rep, err := loadsim.Run(ctx, cfg)
	if rep != nil {
		fmt.Print(rep.Table())
		if *bench != "" {
			f, ferr := os.OpenFile(*bench, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if ferr != nil {
				fail(ferr)
			}
			if _, werr := f.WriteString(rep.BenchLines()); werr != nil {
				fail(werr)
			}
			if cerr := f.Close(); cerr != nil {
				fail(cerr)
			}
		}
	}
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "loadsim: done in %s\n", time.Since(start).Round(time.Millisecond))
}

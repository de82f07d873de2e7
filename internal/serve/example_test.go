package serve_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"smartfeat/internal/experiments"
	"smartfeat/internal/fmgate"
	"smartfeat/internal/grid"
	"smartfeat/internal/serve"
)

// Example submits a Table 4 job to a replay-backed daemon and waits for it —
// the hermetic shape the serve end-to-end check runs: record once with the
// experiments CLI (here, an in-process grid run), then serve any number of
// jobs from the recording at $0 simulated cost.
func Example() {
	check := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	root, err := os.MkdirTemp("", "serve-example-")
	check(err)
	defer os.RemoveAll(root)

	// Record the job's FM traffic once (the CLI equivalent: experiments
	// -table 4 -quick -datasets Diabetes -methods SMARTFEAT -models LR,NB
	// -fm-record <dir>).
	cfg := experiments.QuickConfig()
	cfg.Models = []string{"LR", "NB"}
	sel := grid.Selection{Table: 4}
	datasets := []string{"Diabetes"}
	methods := []string{experiments.MethodInitial, experiments.MethodSmartfeat}
	plan := sel.Plan(datasets, methods)
	stores, err := fmgate.NewRecordStoreSet(filepath.Join(root, "fm"), fmgate.StoreSetManifest{
		ConfigHash: cfg.Fingerprint(), Seed: cfg.Seed, Budget: cfg.SamplingBudget,
	})
	check(err)
	_, err = (&grid.Runner{Config: cfg, Dir: filepath.Join(root, "golden"), Stores: stores}).Run(context.Background(), plan)
	check(err)
	check(stores.Close())

	// Start a replay-backed server (the daemon wraps exactly this).
	s, err := serve.NewServer(serve.Options{
		RunRoot:     filepath.Join(root, "runs"),
		FMReplayDir: filepath.Join(root, "fm"),
		Worker:      "example",
	})
	check(err)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Submit the job the recording covers and wait for it to finish.
	body := `{"name": "t4", "spec": {"table": 4, "quick": true,
	  "datasets": ["Diabetes"], "methods": ["SMARTFEAT"], "models": ["LR", "NB"]}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	check(err)
	resp.Body.Close()
	fmt.Println("submitted:", resp.StatusCode)

	job, _ := s.Job("t4")
	<-job.Done()
	fmt.Println("status:", job.Status())
	check(s.Shutdown(context.Background()))

	// Output:
	// submitted: 202
	// status: completed
}

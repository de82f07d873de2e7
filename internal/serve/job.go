package serve

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"smartfeat/internal/datasets"
	"smartfeat/internal/experiments"
	"smartfeat/internal/grid"
	"smartfeat/internal/ml"
)

// JobSpec describes one feature-construction/grid job in the vocabulary of
// cmd/experiments' flags: which tables and figures to regenerate, over which
// datasets, methods and models, under which configuration scale. The daemon
// turns a spec into a grid.Selection plan and executes it through the same
// cell engine as the CLI, so a served job's result is byte-identical to the
// CLI run of the same selection.
type JobSpec struct {
	// Table selects one table (3, 4, 5, 6 or 7); 0 selects none.
	Table int `json:"table,omitempty"`
	// Figure selects a figure. Only Figure 1 is servable (the Figure 2
	// walkthrough is not cell-addressed; use the CLI).
	Figure int `json:"figure,omitempty"`
	// Efficiency selects the per-method timing/traffic table.
	Efficiency bool `json:"efficiency,omitempty"`
	// Descriptions selects the §4.2 feature-description ablation.
	Descriptions bool `json:"descriptions,omitempty"`
	// All selects every table and figure (except the Figure 2 walkthrough).
	All bool `json:"all,omitempty"`
	// Quick selects the scaled-down configuration (experiments.QuickConfig).
	Quick bool `json:"quick,omitempty"`
	// Seed overrides the experiment seed (0 = the configuration default).
	Seed int64 `json:"seed,omitempty"`
	// Datasets restricts the comparison grid (nil = all eight).
	Datasets []string `json:"datasets,omitempty"`
	// Methods restricts the comparison methods ("Initial AUC" is always
	// included); nil = all.
	Methods []string `json:"methods,omitempty"`
	// Models restricts the downstream classifiers (nil = the paper's five).
	// Changing it changes the config fingerprint, like -seed.
	Models []string `json:"models,omitempty"`
	// Workers bounds the job's cell-level parallelism (0 = GOMAXPROCS,
	// 1 = sequential; results are identical at any setting).
	Workers int `json:"workers,omitempty"`
}

// selection maps the spec onto the shared plan/fold seam.
func (s JobSpec) selection() grid.Selection {
	return grid.Selection{
		Table:        s.Table,
		Figure:       s.Figure,
		Efficiency:   s.Efficiency,
		Descriptions: s.Descriptions,
		All:          s.All,
	}
}

// validate rejects specs the daemon cannot serve, with messages meant for
// the 400 response body.
func (s JobSpec) validate() error {
	switch s.Table {
	case 0, 3, 4, 5, 6, 7:
	default:
		return fmt.Errorf("table %d does not exist (want 3, 4, 5, 6 or 7)", s.Table)
	}
	switch s.Figure {
	case 0, 1:
	case 2:
		return fmt.Errorf("figure 2 (the walkthrough) is not cell-addressed; run it with the experiments CLI")
	default:
		return fmt.Errorf("figure %d does not exist (want 1)", s.Figure)
	}
	if !s.selection().Any() {
		return fmt.Errorf("empty selection: set table, figure, efficiency, descriptions or all")
	}
	if err := checkNames("dataset", s.Datasets, datasets.Names()); err != nil {
		return err
	}
	if err := checkNames("model", s.Models, ml.ModelNames); err != nil {
		return err
	}
	return checkNames("method", s.Methods, append([]string{experiments.MethodInitial}, experiments.Methods()...))
}

// checkNames rejects a name outside known, and a name listed twice: a
// repeated dataset or method would plan the same cell twice, which the grid
// runner refuses only after the job was admitted.
func checkNames(kind string, names, known []string) error {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if !slices.Contains(known, n) {
			return fmt.Errorf("unknown %s %q (want one of %s)", kind, n, strings.Join(known, ", "))
		}
		if seen[n] {
			return fmt.Errorf("%s %q is listed twice", kind, n)
		}
		seen[n] = true
	}
	return nil
}

// datasetNames resolves the comparison dataset scope.
func (s JobSpec) datasetNames() []string {
	if len(s.Datasets) == 0 {
		return datasets.Names()
	}
	return s.Datasets
}

// methodNames resolves the comparison method restriction in CLI -methods
// semantics: nil stays nil (= all methods), a non-empty list always gains
// "Initial AUC" up front.
func (s JobSpec) methodNames() []string {
	if len(s.Methods) == 0 {
		return nil
	}
	methods := []string{experiments.MethodInitial}
	for _, m := range s.Methods {
		if m != experiments.MethodInitial {
			methods = append(methods, m)
		}
	}
	return methods
}

// config builds the job's evaluation configuration, exactly as the CLI's
// flag plumbing would.
func (s JobSpec) config() experiments.Config {
	cfg := experiments.DefaultConfig()
	if s.Quick {
		cfg = experiments.QuickConfig()
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if len(s.Models) > 0 {
		cfg.Models = append([]string(nil), s.Models...)
	}
	cfg.Workers = s.Workers
	return cfg
}

// Job statuses, in lifecycle order.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusCompleted = "completed"
	StatusFailed    = "failed"
	StatusCanceled  = "canceled"
)

// Job is one submitted grid job. The daemon tracks it in memory; its durable
// state — per-cell artifacts, the progress manifest, FM shards — lives in its
// run directory under the shared run root, which is also how N daemon
// replicas cooperate on the same job (they share the directory; the lease
// protocol partitions the cells).
type Job struct {
	// ID doubles as the run-directory name under the run root. Submitting a
	// job under a name a peer replica also received makes both replicas
	// drain the same directory.
	ID     string
	Tenant string
	Spec   JobSpec

	mu          sync.Mutex
	status      string
	err         string
	result      string // folded tables, set on completion
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	cancel      func() // cancels the running job's context (drain timeout)
	done        chan struct{}

	// plan and dir are fixed at admission; reads need no lock.
	plan []grid.Cell
	dir  string
}

// JobView is the status endpoint's JSON rendering of a job.
type JobView struct {
	ID          string        `json:"id"`
	Tenant      string        `json:"tenant"`
	Status      string        `json:"status"`
	Error       string        `json:"error,omitempty"`
	Spec        JobSpec       `json:"spec"`
	SubmittedAt string        `json:"submitted_at"`
	StartedAt   string        `json:"started_at,omitempty"`
	FinishedAt  string        `json:"finished_at,omitempty"`
	RunDir      string        `json:"run_dir"`
	Cells       grid.Progress `json:"cells"`
}

// view snapshots the job for the status endpoint, folding live per-cell
// progress out of the run directory's manifest (shared across replicas, so
// the fold sees peer replicas' cells too).
func (j *Job) view() JobView {
	j.mu.Lock()
	v := JobView{
		ID:          j.ID,
		Tenant:      j.Tenant,
		Status:      j.status,
		Error:       j.err,
		Spec:        j.Spec,
		SubmittedAt: stamp(j.submittedAt),
		StartedAt:   stamp(j.startedAt),
		FinishedAt:  stamp(j.finishedAt),
		RunDir:      j.dir,
	}
	j.mu.Unlock()
	prog, err := grid.PlanProgress(j.dir, j.plan)
	if err != nil {
		prog = grid.Progress{Planned: len(j.plan)}
	}
	v.Cells = prog
	return v
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339)
}

// status returns the job's current lifecycle state.
func (j *Job) Status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the folded tables (ok only once completed).
func (j *Job) Result() (string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.status == StatusCompleted
}

// Done is closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

// setRunning transitions queued → running.
func (j *Job) setRunning(cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = StatusRunning
	j.startedAt = time.Now()
	j.cancel = cancel
}

// finish records the terminal status and wakes Done waiters.
func (j *Job) finish(status, result, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == StatusCompleted || j.status == StatusFailed || j.status == StatusCanceled {
		return
	}
	j.status, j.result, j.err = status, result, errMsg
	j.finishedAt = time.Now()
	j.cancel = nil
	close(j.done)
}

// interrupt cancels the running job's context, if it is running.
func (j *Job) interrupt() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// sanitizeID maps a client-chosen job name onto the filesystem-safe job-ID
// alphabet; every other byte becomes '-' (mirroring grid cell keys — the ID
// names the run directory). The bare dot names ('.', '..') would resolve the
// run directory outside the run root; they get a generated ID instead.
func sanitizeID(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			b.WriteByte('-')
		}
	}
	if id := b.String(); id != "." && id != ".." {
		return id
	}
	return ""
}

// sortedViews renders jobs sorted by submission time then ID (stable across
// polls for the list endpoint).
func sortedViews(jobs []*Job) []JobView {
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.view())
	}
	sort.Slice(views, func(a, b int) bool {
		if views[a].SubmittedAt != views[b].SubmittedAt {
			return views[a].SubmittedAt < views[b].SubmittedAt
		}
		return views[a].ID < views[b].ID
	})
	return views
}

package serve

import (
	"sort"
	"strings"
	"sync"
	"time"

	"smartfeat/internal/grid"
)

// JobSpec names the job type for clients that build submit bodies from it;
// grid.Spec's JSON tags are the wire format.
type JobSpec = grid.Spec

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
	// Spec is the submitted spec in canonical form: resubmissions compare
	// against it.
	Spec grid.Spec

	mu          sync.Mutex
	status      string
	err         string
	result      string // folded tables, set on completion
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	cancel      func() // cancels the running job's context (drain timeout)

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
	Spec        grid.Spec     `json:"spec"`
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

// setRunning transitions queued → running.
func (j *Job) setRunning(cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = StatusRunning
	j.startedAt = time.Now()
	j.cancel = cancel
}

// finish records the terminal status.
func (j *Job) finish(status, result, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == StatusCompleted || j.status == StatusFailed || j.status == StatusCanceled {
		return
	}
	j.status, j.result, j.err = status, result, errMsg
	j.finishedAt = time.Now()
	j.cancel = nil
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

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"smartfeat/internal/fm"
	"smartfeat/internal/lease"
	"smartfeat/internal/obs"
)

// clock is the origin every recorded interval is measured from.
var clock = time.Now()

func since0(t time.Time) float64 { return t.Sub(clock).Seconds() }

// fmCall is one completion as seen at a wrapper: when it ran and what for.
type fmCall struct {
	interval
	task        string
	promptBytes int
}

// callLog collects completions from one wrapper; safe for concurrent use.
type callLog struct {
	mu    sync.Mutex
	calls []fmCall
}

func (l *callLog) add(c fmCall) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

func (l *callLog) snapshot() []fmCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]fmCall(nil), l.calls...)
}

// promptTask extracts the prompt's "Task:" line, the key the per-stage core
// attribution uses.
func promptTask(prompt string) string {
	for _, line := range strings.Split(prompt, "\n") {
		if task, ok := strings.CutPrefix(line, "Task:"); ok {
			return strings.TrimSpace(task)
		}
	}
	return ""
}

// timedModel wraps an fm.Model and logs every completion's interval. Placed
// below a gateway it times the simulator (upstream); placed above, it times
// what the caller sees (gateway included). It forwards Submit when the inner
// model has it, so wrapping a gateway keeps the row-level fan-out path.
type timedModel struct {
	inner fm.Model
	span  string // obs span name recorded around each call ("" = none)
	log   *callLog
}

func (m *timedModel) Complete(ctx context.Context, prompt string) (string, error) {
	var sp *obs.Span
	if m.span != "" {
		ctx, sp = obs.StartSpan(ctx, m.span)
	}
	start := time.Now()
	text, err := m.inner.Complete(ctx, prompt)
	m.log.add(fmCall{interval: interval{since0(start), since0(time.Now())}, task: promptTask(prompt), promptBytes: len(prompt)})
	sp.End()
	return text, err
}

func (m *timedModel) Submit(ctx context.Context, prompt string) <-chan fm.Result {
	sub, ok := m.inner.(fm.Submitter)
	if !ok {
		out := make(chan fm.Result, 1)
		text, err := m.Complete(ctx, prompt)
		out <- fm.Result{Text: text, Err: err}
		return out
	}
	start := time.Now()
	in := sub.Submit(ctx, prompt)
	out := make(chan fm.Result, 1)
	go func() {
		r := <-in
		m.log.add(fmCall{interval: interval{since0(start), since0(time.Now())}, task: promptTask(prompt), promptBytes: len(prompt)})
		out <- r
	}()
	return out
}

func (m *timedModel) Usage() fm.Usage { return m.inner.Usage() }
func (m *timedModel) ResetUsage()     { m.inner.ResetUsage() }
func (m *timedModel) Name() string    { return m.inner.Name() }

// timedClaimer hands out the grid runner's in-memory cell claims and records
// how long each cell held its claim: the runner claims a cell right before
// executing it and releases it after the artifact and manifest are written,
// so claim-to-release is the cell's latency without any tracing.
type timedClaimer struct {
	inner lease.Claimer
	mu    sync.Mutex
	cells []float64
}

func (c *timedClaimer) Claim(key string) (lease.Claim, bool, error) {
	cl, ok, err := c.inner.Claim(key)
	if !ok || err != nil {
		return cl, ok, err
	}
	return &timedClaim{Claim: cl, owner: c, start: time.Now()}, true, nil
}

func (c *timedClaimer) Holder(key string) (lease.Info, bool) { return c.inner.Holder(key) }

func (c *timedClaimer) durations() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.cells...)
}

type timedClaim struct {
	lease.Claim
	owner *timedClaimer
	start time.Time
	once  sync.Once
}

func (t *timedClaim) Release() error {
	t.once.Do(func() {
		t.owner.mu.Lock()
		t.owner.cells = append(t.owner.cells, time.Since(t.start).Seconds())
		t.owner.mu.Unlock()
	})
	return t.Claim.Release()
}

// httpCall is one client request to the daemon.
type httpCall struct {
	interval
	method, path string
	status       int
	body         []byte
	jobName      string // submit: the job name in the request body
}

// timedTransport records every request's full latency (headers and body)
// and keeps the response bodies the serve workload reads status
// transitions and /metrics deltas from. With a tracer in the request
// context it also records one span per request.
type timedTransport struct {
	base http.RoundTripper
	mu   sync.Mutex
	log  []httpCall
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c := httpCall{method: req.Method, path: req.URL.Path}
	if req.URL.RawQuery != "" {
		c.path += "?" + req.URL.RawQuery
	}
	if req.Body != nil && req.Method == http.MethodPost {
		b, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		var sub struct {
			Name string `json:"name"`
		}
		if json.Unmarshal(b, &sub) == nil {
			c.jobName = sub.Name
		}
		req.Body = io.NopCloser(bytes.NewReader(b))
	}
	_, sp := obs.StartSpan(req.Context(), endpointOf(c.method, c.path))
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		c.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(c.body))
		c.status = resp.StatusCode
	}
	c.interval = interval{since0(start), since0(time.Now())}
	sp.End()
	t.mu.Lock()
	t.log = append(t.log, c)
	t.mu.Unlock()
	return resp, err
}

func (t *timedTransport) calls() []httpCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]httpCall(nil), t.log...)
}

// endpointOf names a daemon request by endpoint.
func endpointOf(method, path string) string {
	switch {
	case strings.HasPrefix(path, "/metrics"):
		return "obs.scrape"
	case method == http.MethodPost:
		return "serve.submit"
	case strings.HasSuffix(path, "/result"):
		return "serve.result"
	default:
		return "serve.status"
	}
}

// readTrace parses an obs trace.jsonl stream into spans (the header line
// and anything unparsable are skipped).
func readTrace(r io.Reader) ([]span, error) {
	var out []span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rec struct {
			ID     int64             `json:"id"`
			Parent int64             `json:"parent"`
			Name   string            `json:"name"`
			TsUS   int64             `json:"ts_us"`
			DurUS  int64             `json:"dur_us"`
			Attrs  map[string]string `json:"attrs"`
		}
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Name == "" {
			continue
		}
		out = append(out, span{id: rec.ID, parent: rec.Parent, name: rec.Name,
			start: float64(rec.TsUS) / 1e6, dur: float64(rec.DurUS) / 1e6, attrs: rec.Attrs})
	}
	return out, sc.Err()
}

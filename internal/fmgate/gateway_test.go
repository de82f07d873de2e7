package fmgate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartfeat/internal/core"
	"smartfeat/internal/dataframe"
	"smartfeat/internal/fm"
)

// countingModel is a concurrency-tolerant fm.Model double: it counts
// upstream calls, optionally sleeps per call, and answers deterministically
// from the prompt.
type countingModel struct {
	calls int64
	delay time.Duration
	fail  func(prompt string) error
	mu    sync.Mutex
	usage fm.Usage
}

func (m *countingModel) Complete(ctx context.Context, prompt string) (string, error) {
	atomic.AddInt64(&m.calls, 1)
	if m.delay > 0 {
		t := time.NewTimer(m.delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return "", ctx.Err()
		case <-t.C:
		}
	}
	if m.fail != nil {
		if err := m.fail(prompt); err != nil {
			return "", err
		}
	}
	m.mu.Lock()
	m.usage.Calls++
	m.mu.Unlock()
	return "resp:" + prompt, nil
}

func (m *countingModel) Usage() fm.Usage {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.usage
}
func (m *countingModel) ResetUsage() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.usage = fm.Usage{}
}
func (m *countingModel) Name() string { return "counting" }

func allCacheable(string) bool { return true }

// TestSubmitStorm fans hundreds of distinct prompts through a narrow
// concurrency bound and checks every result arrives, in order, exactly once.
func TestSubmitStorm(t *testing.T) {
	model := &countingModel{delay: time.Millisecond}
	g := New(model, Options{Concurrency: 4, CacheSize: 1024, Cacheable: allCacheable})
	ctx := context.Background()
	const n = 300
	chans := make([]<-chan fm.Result, n)
	for i := 0; i < n; i++ {
		chans[i] = g.Submit(ctx, fmt.Sprintf("prompt-%d", i))
	}
	for i, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("prompt %d: %v", i, r.Err)
		}
		if want := fmt.Sprintf("resp:prompt-%d", i); r.Text != want {
			t.Fatalf("prompt %d: got %q want %q", i, r.Text, want)
		}
	}
	m := g.Metrics()
	if m.Requests != n || m.UpstreamCalls != n || m.Errors != 0 {
		t.Fatalf("metrics after storm: %+v", m)
	}
	if got := atomic.LoadInt64(&model.calls); got != n {
		t.Fatalf("upstream calls = %d, want %d", got, n)
	}
}

// TestSingleflightDedup checks that concurrent identical prompts share one
// upstream call, and that the combination of in-flight shares and cache hits
// accounts for every other request.
func TestSingleflightDedup(t *testing.T) {
	model := &countingModel{delay: 30 * time.Millisecond}
	g := New(model, Options{Concurrency: 16, CacheSize: 64, Cacheable: allCacheable})
	ctx := context.Background()
	const n = 24
	var wg sync.WaitGroup
	results := make([]fm.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = <-g.Submit(ctx, "identical prompt")
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.Err != nil || r.Text != "resp:identical prompt" {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
	if got := atomic.LoadInt64(&model.calls); got != 1 {
		t.Fatalf("upstream calls = %d, want 1 (singleflight)", got)
	}
	m := g.Metrics()
	if m.UpstreamCalls != 1 {
		t.Fatalf("metrics upstream = %d, want 1", m.UpstreamCalls)
	}
	if m.InflightShares+m.CacheHits != n-1 {
		t.Fatalf("shares(%d) + hits(%d) should cover the other %d requests",
			m.InflightShares, m.CacheHits, n-1)
	}
	// A follow-up request is a pure cache hit.
	before := m.CacheHits
	if r := <-g.Submit(ctx, "identical prompt"); r.Err != nil || !r.Cached {
		t.Fatalf("follow-up should be cached: %+v", r)
	}
	if g.Metrics().CacheHits != before+1 {
		t.Fatal("follow-up did not hit the cache")
	}
}

// TestSamplingPromptsNotDeduped checks the semantic guard: prompts for
// sampling tasks are never cached or deduplicated, because identical prompts
// are *meant* to draw different candidates.
func TestSamplingPromptsNotDeduped(t *testing.T) {
	model := &countingModel{}
	g := New(model, Options{CacheSize: 64}) // default Cacheable: fm.CacheableTask
	ctx := context.Background()
	prompt := "Task: " + fm.TaskSampleBinary + "\nSample one.\n"
	for i := 0; i < 5; i++ {
		if r := <-g.Submit(ctx, prompt); r.Err != nil || r.Cached {
			t.Fatalf("sampling submit %d: %+v", i, r)
		}
	}
	if got := atomic.LoadInt64(&model.calls); got != 5 {
		t.Fatalf("sampling prompts must all reach upstream: %d calls", got)
	}
}

// faultyModel runs every call through a fault injector the way a pool
// backend does: draw, transport fault, model call, content corruption.
type faultyModel struct {
	fi *FaultInjector
	fm.Model
}

func (m faultyModel) Complete(ctx context.Context, prompt string) (string, error) {
	f := m.fi.Draw(prompt)
	if err := m.fi.Apply(ctx, f); err != nil {
		return "", err
	}
	text, err := m.Model.Complete(ctx, prompt)
	if err != nil {
		return "", err
	}
	return f.Corrupt(text), nil
}

// TestRetryWithFaults drives the gateway over a fault injector: transient
// errors are retried with backoff until success, and the retry counter
// reflects the extra attempts.
func TestRetryWithFaults(t *testing.T) {
	model := faultyModel{
		fi:    &FaultInjector{ErrorRate: 0.5, MaxJitter: time.Millisecond, Seed: 11},
		Model: &countingModel{},
	}
	g := New(model, Options{
		Cacheable:    allCacheable,
		MaxRetries:   6,
		RetryBackoff: time.Millisecond,
	})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		text, err := g.Complete(ctx, fmt.Sprintf("p%d", i))
		if err != nil {
			t.Fatalf("completion %d should survive transient faults: %v", i, err)
		}
		if want := fmt.Sprintf("resp:p%d", i); text != want {
			t.Fatalf("completion %d = %q", i, text)
		}
	}
	m := g.Metrics()
	if m.Retries == 0 {
		t.Fatal("fault injection at 50% should have forced retries")
	}
	if m.Errors != 0 {
		t.Fatalf("all completions should eventually succeed: %+v", m)
	}
}

// TestRetryExhaustion checks a permanently failing upstream surfaces the
// transient error after MaxRetries attempts, and that permanent errors are
// not retried at all.
func TestRetryExhaustion(t *testing.T) {
	transient := &countingModel{fail: func(string) error { return Transient(errors.New("flaky")) }}
	g := New(transient, Options{Cacheable: allCacheable, MaxRetries: 3, RetryBackoff: time.Microsecond})
	if _, err := g.Complete(context.Background(), "p"); !IsTransient(err) {
		t.Fatalf("want transient error, got %v", err)
	}
	if got := atomic.LoadInt64(&transient.calls); got != 4 {
		t.Fatalf("1 + 3 retries = 4 attempts, got %d", got)
	}
	if m := g.Metrics(); m.Retries != 3 || m.Errors != 1 {
		t.Fatalf("metrics: %+v", m)
	}

	permanent := &countingModel{fail: func(string) error { return errors.New("parse error") }}
	g2 := New(permanent, Options{Cacheable: allCacheable, MaxRetries: 3, RetryBackoff: time.Microsecond})
	if _, err := g2.Complete(context.Background(), "p"); err == nil || IsTransient(err) {
		t.Fatalf("want permanent error, got %v", err)
	}
	if got := atomic.LoadInt64(&permanent.calls); got != 1 {
		t.Fatalf("permanent errors must not be retried: %d attempts", got)
	}
}

// TestSubmitCancellation checks a canceled context aborts queued
// submissions promptly.
func TestSubmitCancellation(t *testing.T) {
	model := &countingModel{delay: 50 * time.Millisecond}
	g := New(model, Options{Concurrency: 1, Cacheable: allCacheable})
	ctx, cancel := context.WithCancel(context.Background())
	var chans []<-chan fm.Result
	for i := 0; i < 8; i++ {
		chans = append(chans, g.Submit(ctx, fmt.Sprintf("slow-%d", i)))
	}
	cancel()
	canceled := 0
	for _, ch := range chans {
		if r := <-ch; errors.Is(r.Err, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("cancellation should abort queued submissions")
	}
}

// insuranceCSV is the Table 1 example, expanded enough for group stats.
const insuranceCSV = `Sex,Age,Age of car,Make,Claim in last 6 month,City,Safe
M,21,6,Honda,1,SF,0
F,35,2,Toyota,0,LA,1
M,42,8,Ford,0,SEA,1
F,22,14,Chevrolet,1,SF,0
M,45,3,BMW,0,SEA,1
F,56,5,Volkswagen,0,LA,1
M,33,4,Honda,0,SF,1
F,29,9,Ford,1,LA,0
M,61,2,Toyota,0,SEA,1
F,47,7,BMW,0,SF,1
`

var insuranceDescriptions = map[string]string{
	"Sex":                   "Sex of the policyholder",
	"Age":                   "Age of the policyholder in years",
	"Age of car":            "Age of the insured car in years",
	"Make":                  "Manufacturer of the car",
	"Claim in last 6 month": "Number of claims filed in the last 6 months",
	"City":                  "City of residence",
}

// pipelineOptions builds a full-pipeline configuration over the given
// selector/generator models.
func pipelineOptions(selector, generator fm.Model) core.Options {
	return core.Options{
		Target:            "Safe",
		TargetDescription: "Whether the policyholder is safe (1=yes, 0=no)",
		Descriptions:      insuranceDescriptions,
		SelectorFM:        selector,
		GeneratorFM:       generator,
		SamplingBudget:    6,
		RowLevelBudgetUSD: 5,
	}
}

// TestRecordReplayRoundTrip records a full pipeline run — error injection,
// sampling repeats, row-level completions and all — then replays it through
// fresh gateways and asserts the output frame is byte-identical while the
// simulators are never touched: zero calls, zero simulated cost.
func TestRecordReplayRoundTrip(t *testing.T) {
	f, err := dataframe.ReadCSVString(insuranceCSV)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.fmrec")

	store, err := NewRecordStore(path)
	if err != nil {
		t.Fatal(err)
	}
	recSel := New(fm.NewGPT4Sim(3, 0.15), Options{Store: store})
	recGen := New(fm.NewGPT35Sim(4, 0.15), Options{Store: store})
	recorded, err := core.Run(f, pipelineOptions(recSel, recGen))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	var recordedCSV bytes.Buffer
	if err := recorded.Frame.WriteCSV(&recordedCSV); err != nil {
		t.Fatal(err)
	}
	if recorded.SelectorUsage.SimCostUSD == 0 {
		t.Fatal("recording run should have paid simulated cost")
	}

	replayStore, err := OpenReplayStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if replayStore.Len() == 0 {
		t.Fatal("recording is empty")
	}
	// Different seeds on purpose: replay must never consult the simulators.
	repSel := New(fm.NewGPT4Sim(999, 0.5), Options{Store: replayStore})
	repGen := New(fm.NewGPT35Sim(998, 0.5), Options{Store: replayStore})
	replayed, err := core.Run(f, pipelineOptions(repSel, repGen))
	if err != nil {
		t.Fatal(err)
	}
	var replayedCSV bytes.Buffer
	if err := replayed.Frame.WriteCSV(&replayedCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recordedCSV.Bytes(), replayedCSV.Bytes()) {
		t.Fatalf("replayed frame differs from recorded frame:\n--- recorded ---\n%s\n--- replayed ---\n%s",
			recordedCSV.String(), replayedCSV.String())
	}
	for role, u := range map[string]fm.Usage{"selector": replayed.SelectorUsage, "generator": replayed.GeneratorUsage} {
		if u.Calls != 0 || u.SimCostUSD != 0 {
			t.Fatalf("replayed %s usage must be free: %s", role, u)
		}
	}
	if m := repSel.Metrics(); m.Replayed == 0 || m.UpstreamCalls != 0 {
		t.Fatalf("selector replay metrics: %+v", m)
	}
}

// TestReplayExhaustion pins the exhausted-queue split: deterministic
// (cacheable) prompts stick at the last recorded response, while sampling
// prompts — whose recorded entries each stand for a distinct draw — miss
// loudly once the replay run out-runs the recording.
func TestReplayExhaustion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.fmrec")
	store, err := NewRecordStore(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := New(fm.NewScripted("s1", "s2", "d1"), Options{Store: store})
	ctx := context.Background()
	sampling := "Task: " + fm.TaskSampleBinary + "\ndraw\n"
	deterministic := "Task: " + fm.TaskGenerateFunction + "\nspec\n"
	for _, p := range []string{sampling, sampling, deterministic} {
		if _, err := rec.Complete(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	replay, err := OpenReplayStore(path)
	if err != nil {
		t.Fatal(err)
	}
	// Same model name as the recorder (keys embed it); no responses needed —
	// replay never consults the model.
	g := New(fm.NewScripted(), Options{Store: replay})
	for i, want := range []string{"s1", "s2"} {
		if text, err := g.Complete(ctx, sampling); err != nil || text != want {
			t.Fatalf("sampling replay %d: %q, %v", i, text, err)
		}
	}
	if _, err := g.Complete(ctx, sampling); err == nil {
		t.Fatal("third sampling replay must miss: recorded draws are spent")
	}
	for i := 0; i < 3; i++ { // sticky: deterministic prompts repeat freely
		if text, err := g.Complete(ctx, deterministic); err != nil || text != "d1" {
			t.Fatalf("deterministic replay %d: %q, %v", i, text, err)
		}
	}
}

// drawModel numbers its answers, so a replay that pops the wrong recorded
// entry shows in the text. Prompts containing "boom" fail upstream.
type drawModel struct{ calls int64 }

func (m *drawModel) Complete(_ context.Context, prompt string) (string, error) {
	n := atomic.AddInt64(&m.calls, 1)
	if strings.Contains(prompt, "boom") {
		return "", errors.New("upstream boom")
	}
	return fmt.Sprintf("draw %d: %s", n, firstLine(prompt)), nil
}
func (m *drawModel) Name() string    { return "draw" }
func (m *drawModel) Usage() fm.Usage { return fm.Usage{} }
func (m *drawModel) ResetUsage()     {}

// TestReplayMirrorsRecordedTraffic records cacheable repeats, sampling
// repeats and an upstream error through a caching gateway, then replays the
// recording through a gateway built with the same options. The replay store
// alone selects replay: outputs and errors match, the model is never called,
// and the traffic counters mirror the recording's with upstream calls and
// replays swapped — replay runs through the same cache the recording did.
func TestReplayMirrorsRecordedTraffic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.fmrec")
	det := "Task: " + fm.TaskGenerateFunction + "\nspec\n"
	det2 := "Task: " + fm.TaskGenerateFunction + "\nother\n"
	sampling := "Task: " + fm.TaskSampleBinary + "\ndraw\n"
	bad := "Task: " + fm.TaskGenerateFunction + "\nboom\n"
	prompts := []string{det, sampling, det, sampling, bad, det2, sampling, det, det2}
	type outcome struct {
		text string
		err  error
	}
	run := func(g *Gateway) []outcome {
		out := make([]outcome, len(prompts))
		for i, p := range prompts {
			out[i].text, out[i].err = g.Complete(context.Background(), p)
		}
		return out
	}

	store, err := NewRecordStore(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := New(&drawModel{}, Options{CacheSize: 16, Store: store})
	recorded := run(rec)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	replayStore, err := OpenReplayStore(path)
	if err != nil {
		t.Fatal(err)
	}
	model := &drawModel{}
	rep := New(model, Options{CacheSize: 16, Store: replayStore})
	replayed := run(rep)

	for i := range prompts {
		r, p := recorded[i], replayed[i]
		if r.text != p.text || (r.err == nil) != (p.err == nil) {
			t.Fatalf("prompt %d: recorded (%q, %v), replayed (%q, %v)", i, r.text, r.err, p.text, p.err)
		}
		if r.err != nil && !strings.HasSuffix(p.err.Error(), r.err.Error()) {
			t.Fatalf("prompt %d: replayed error %q does not reproduce %q", i, p.err, r.err)
		}
	}
	if n := atomic.LoadInt64(&model.calls); n != 0 {
		t.Fatalf("replay called the model %d times", n)
	}
	want := rec.Metrics()
	if want.CacheHits == 0 || want.Errors == 0 || want.UpstreamCalls == 0 {
		t.Fatalf("recording exercised too little: %+v", want)
	}
	want.UpstreamCalls, want.Replayed = want.Replayed, want.UpstreamCalls
	if got := rep.Metrics(); got != want {
		t.Fatalf("replay metrics %+v, want the recording's mirrored: %+v", got, want)
	}
}

// TestRowCompletionErrorInjectionDeterministic checks the simulated FM's
// error injection for row completions is content-addressed, so the fanned-
// out path corrupts exactly the rows the sequential path corrupts.
func TestRowCompletionErrorInjectionDeterministic(t *testing.T) {
	f, err := dataframe.ReadCSVString(insuranceCSV)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 40)
	for i := range idx {
		idx[i] = i % f.Len()
	}
	big := f.Take(idx)
	mk := func() fm.Model {
		return fm.NewSimulated(fm.SimulatedConfig{Seed: 5, ErrorRate: 0.4})
	}
	ctx := context.Background()
	seq, err := core.CompleteRows(ctx, mk(), big, "Density", big.Len())
	if err != nil {
		t.Fatal(err)
	}
	gw := New(mk(), Options{Concurrency: 8})
	con, err := core.CompleteRows(ctx, gw, big, "Density", big.Len())
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for i := range seq {
		seqNaN, conNaN := seq[i] != seq[i], con[i] != con[i]
		if seqNaN != conNaN || (!seqNaN && seq[i] != con[i]) {
			t.Fatalf("row %d diverges: sequential %v vs concurrent %v", i, seq[i], con[i])
		}
		if seqNaN {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("error rate 0.4 over 10 distinct rows should corrupt something")
	}
}

// TestReplayMissFails checks replay mode refuses to fall through to paid
// traffic when the recording does not cover a prompt.
func TestReplayMissFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.fmrec")
	store, err := NewRecordStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	replay, err := OpenReplayStore(path)
	if err != nil {
		t.Fatal(err)
	}
	model := &countingModel{}
	g := New(model, Options{Store: replay})
	if _, err := g.Complete(context.Background(), "never recorded"); err == nil {
		t.Fatal("replay miss must be an error")
	}
	if atomic.LoadInt64(&model.calls) != 0 {
		t.Fatal("replay miss must not reach upstream")
	}
}

// TestConcurrentRowLevelSpeedup is the gateway's headline number: with the
// simulated model's latency enabled, the row-level loop fanned out at
// concurrency 8 must be at least 4× faster wall-clock than the sequential
// path (the ideal is 8×; 4× leaves headroom for scheduler noise).
func TestConcurrentRowLevelSpeedup(t *testing.T) {
	f, err := dataframe.ReadCSVString(insuranceCSV)
	if err != nil {
		t.Fatal(err)
	}
	// Repeat the frame's rows via Take to get 32 distinct-index rows; row
	// prompts repeat, but dedup/cache are disabled to measure raw fan-out.
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i % f.Len()
	}
	big := f.Take(idx)
	latency := fm.SimulatedConfig{
		ModelName:    "latency-sim",
		Pricing:      fm.Pricing{BaseLatency: 8 * time.Millisecond, PromptPer1k: 0.001, CompletionPer1k: 0.001},
		LatencyScale: 1,
	}
	ctx := context.Background()

	seqStart := time.Now()
	seqVals, err := core.CompleteRows(ctx, fm.NewSimulated(latency), big, "Density", big.Len())
	if err != nil {
		t.Fatal(err)
	}
	sequential := time.Since(seqStart)

	gw := New(fm.NewSimulated(latency), Options{Concurrency: 8, Cacheable: func(string) bool { return false }})
	conStart := time.Now()
	conVals, err := core.CompleteRows(ctx, gw, big, "Density", big.Len())
	if err != nil {
		t.Fatal(err)
	}
	concurrent := time.Since(conStart)

	for i := range seqVals {
		if seqVals[i] != conVals[i] && !(seqVals[i] != seqVals[i] && conVals[i] != conVals[i]) {
			t.Fatalf("row %d: concurrent value %v != sequential %v", i, conVals[i], seqVals[i])
		}
	}
	t.Logf("sequential %s, concurrent(8) %s, speedup %.1f×",
		sequential, concurrent, float64(sequential)/float64(concurrent))
	if sequential < 4*concurrent {
		t.Fatalf("concurrency 8 should be ≥ 4× faster: sequential %s vs concurrent %s", sequential, concurrent)
	}
}

// TestRouterAggregation checks per-role routing and the aggregated
// usage/metrics report.
func TestRouterAggregation(t *testing.T) {
	sel := New(&countingModel{}, Options{Cacheable: allCacheable})
	gen := New(&countingModel{}, Options{Cacheable: allCacheable})
	r := NewRouter().Route(RoleSelector, sel).Route(RoleGenerator, gen)
	ctx := context.Background()
	if _, err := r.Gate(RoleSelector).Complete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Gate(RoleGenerator).Complete(ctx, fmt.Sprintf("b%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if m := r.Metrics(); m.Requests != 3 || m.UpstreamCalls != 3 {
		t.Fatalf("router metrics: %+v", m)
	}
	if u := r.Usage(); u.Calls != 3 {
		t.Fatalf("router usage: %+v", u)
	}
	if len(r.Roles()) != 2 {
		t.Fatalf("roles: %v", r.Roles())
	}
	if rep := r.Report(); rep == "" {
		t.Fatal("empty report")
	}
}

// TestLRUCacheEviction pins the cache's bounded-capacity behaviour.
func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", "1")
	c.put("b", "2")
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should be resident")
	}
	c.put("c", "3") // evicts b (least recently used)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s should be resident", k)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
}

// TestCacheableTask pins the sampling-vs-deterministic prompt split.
func TestCacheableTask(t *testing.T) {
	cases := map[string]bool{
		"Task: " + fm.TaskSampleBinary + "\nx":     false,
		"Task: " + fm.TaskSampleHighOrder + "\nx":  false,
		"Task: " + fm.TaskSampleExtractor + "\nx":  false,
		"Task: " + fm.TaskProposeUnary + "\nx":     true,
		"Task: " + fm.TaskGenerateFunction + "\nx": true,
		"Task: " + fm.TaskCompleteRow + "\nx":      true,
		"no task header":                           false,
	}
	for prompt, want := range cases {
		if got := fm.CacheableTask(prompt); got != want {
			t.Fatalf("CacheableTask(%q) = %v, want %v", prompt, got, want)
		}
	}
}

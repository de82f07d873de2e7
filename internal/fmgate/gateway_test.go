package fmgate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartfeat/internal/core"
	"smartfeat/internal/dataframe"
	"smartfeat/internal/fm"
	"smartfeat/internal/obs"
	"smartfeat/internal/par"
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

// task makes body a deterministic-task prompt, one fm.CacheableTask admits:
// the gateway caches and deduplicates it.
func task(body string) string { return "Task: " + fm.TaskGenerateFunction + "\n" + body }

// TestSubmitStorm fans hundreds of distinct prompts through a narrow
// concurrency bound and checks every result arrives, in order, exactly once.
func TestSubmitStorm(t *testing.T) {
	model := &countingModel{delay: time.Millisecond}
	g := New(model, Options{Concurrency: 4, CacheSize: 1024})
	ctx := context.Background()
	const n = 300
	chans := make([]<-chan fm.Result, n)
	for i := 0; i < n; i++ {
		chans[i] = g.Submit(ctx, task(fmt.Sprintf("prompt-%d", i)))
	}
	for i, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("prompt %d: %v", i, r.Err)
		}
		if want := "resp:" + task(fmt.Sprintf("prompt-%d", i)); r.Text != want {
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
	g := New(model, Options{Concurrency: 16, CacheSize: 64})
	ctx := context.Background()
	prompt := task("identical prompt")
	const n = 24
	var wg sync.WaitGroup
	results := make([]fm.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = <-g.Submit(ctx, prompt)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.Err != nil || r.Text != "resp:"+prompt {
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
	if r := <-g.Submit(ctx, prompt); r.Err != nil || !r.Cached {
		t.Fatalf("follow-up should be cached: %+v", r)
	}
	if g.Metrics().CacheHits != before+1 {
		t.Fatal("follow-up did not hit the cache")
	}
}

// panicOnceModel panics on its first call, once release is closed, and
// answers every later call as countingModel does.
type panicOnceModel struct {
	countingModel
	entered chan struct{}
	release chan struct{}
}

func (m *panicOnceModel) Complete(_ context.Context, prompt string) (string, error) {
	if atomic.AddInt64(&m.calls, 1) == 1 {
		close(m.entered)
		<-m.release
		panic("model exploded")
	}
	return "resp:" + prompt, nil
}

// TestSingleflightReleasedOnPanic: when the upstream model panics under a
// flight's leader, the panic goes on up the leader's stack, a request that
// joined the flight fails at once with an error naming the panic, and a
// later identical request starts a new flight and is answered, instead of
// each waiting out its deadline on a flight nobody will end.
func TestSingleflightReleasedOnPanic(t *testing.T) {
	model := &panicOnceModel{entered: make(chan struct{}), release: make(chan struct{})}
	g := New(model, Options{Concurrency: 4, CacheSize: 64})
	prompt := task("identical prompt")
	const deadline = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		_, _ = g.Complete(ctx, prompt)
	}()
	<-model.entered
	type outcome struct {
		err     error
		elapsed time.Duration
	}
	joined := make(chan outcome, 1)
	go func() {
		start := time.Now()
		_, err := g.Complete(ctx, prompt)
		joined <- outcome{err, time.Since(start)}
	}()
	for g.Metrics().InflightShares == 0 {
		time.Sleep(time.Millisecond)
	}
	close(model.release)
	if r := <-leader; r != "model exploded" {
		t.Fatalf("leader recovered %v, want the model's panic", r)
	}
	w := <-joined
	if w.err == nil || !strings.Contains(w.err.Error(), "panicked: model exploded") {
		t.Fatalf("joined request: err %v, want one naming the panic", w.err)
	}
	if w.elapsed > deadline/2 {
		t.Fatalf("joined request took %v", w.elapsed)
	}
	start := time.Now()
	text, err := g.Complete(ctx, prompt)
	if err != nil || text != "resp:"+prompt {
		t.Fatalf("later request: %q, %v", text, err)
	}
	if elapsed := time.Since(start); elapsed > deadline/2 {
		t.Fatalf("later request took %v", elapsed)
	}
	if got := atomic.LoadInt64(&model.calls); got != 2 {
		t.Fatalf("upstream calls = %d, want 2", got)
	}
}

// TestSamplingPromptsNotDeduped checks the semantic guard: prompts for
// sampling tasks are never cached or deduplicated, because identical prompts
// are *meant* to draw different candidates.
func TestSamplingPromptsNotDeduped(t *testing.T) {
	model := &countingModel{}
	g := New(model, Options{CacheSize: 64})
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

// TestRetryWithFaults drives the gateway over a fault injector: rate-limit
// errors are retried after their hint until success, and the retry counter
// reflects the extra attempts.
func TestRetryWithFaults(t *testing.T) {
	model := faultyModel{
		fi:    &FaultInjector{RateLimitRate: 0.5, RetryAfter: time.Millisecond, MaxJitter: time.Millisecond, Seed: 11},
		Model: &countingModel{},
	}
	g := New(model, Options{MaxRetries: 10})
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
	transient := &countingModel{fail: func(string) error { return RateLimited(errors.New("flaky"), time.Millisecond) }}
	g := New(transient, Options{MaxRetries: 3})
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
	g2 := New(permanent, Options{MaxRetries: 3})
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
	g := New(model, Options{Concurrency: 1})
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
	if storeLen(replayStore) == 0 {
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

// idFrame builds an n-row frame whose row i serializes as "Id: i", so a
// model can tell rows apart by their prompt.
func idFrame(t *testing.T, n int) *dataframe.Frame {
	t.Helper()
	ids := make([]float64, n)
	for i := range ids {
		ids[i] = float64(i)
	}
	f := dataframe.New()
	if err := f.AddNumeric("Id", ids); err != nil {
		t.Fatal(err)
	}
	return f
}

// rowOf reads the row index back out of a row prompt of idFrame.
func rowOf(prompt string) int {
	_, rest, _ := strings.Cut(prompt, "Row: Id: ")
	id, _, _ := strings.Cut(rest, ",")
	var i int
	fmt.Sscan(id, &i)
	return i
}

// TestCompleteRowsLowestFailingRow fails several rows of a frame wider than
// the worker count. The lowest failing row is also the slowest, so higher
// rows fail (and cancel the workers above them) first; the error must still
// name the lowest failing row, as a sequential pass would.
func TestCompleteRowsLowestFailingRow(t *testing.T) {
	f := idFrame(t, 700)
	failing := map[int]bool{37: true, 300: true, 301: true, 650: true}
	for _, concurrency := range []int{1, 2, 8} {
		t.Run(fmt.Sprint("concurrency=", concurrency), func(t *testing.T) {
			model := &countingModel{fail: func(prompt string) error {
				i := rowOf(prompt)
				if i == 37 {
					time.Sleep(20 * time.Millisecond)
				}
				if failing[i] {
					return fmt.Errorf("row %d refused", i)
				}
				return nil
			}}
			g := New(model, Options{Concurrency: concurrency})
			_, err := core.CompleteRows(context.Background(), g, f, "Density", f.Len())
			if err == nil || !strings.HasPrefix(err.Error(), "core: row 37 completion: ") || !strings.HasSuffix(err.Error(), "row 37 refused") {
				t.Fatalf("err = %v, want row 37's failure", err)
			}
		})
	}
}

// activeModel counts the completions currently inside Complete and blocks
// each one that free does not answer at once until release is closed or its
// context ends.
type activeModel struct {
	countingModel
	active  atomic.Int64
	free    func(prompt string) bool
	entered chan struct{} // receives once per call, without blocking
	release chan struct{}
}

func (m *activeModel) Complete(ctx context.Context, prompt string) (string, error) {
	m.active.Add(1)
	defer m.active.Add(-1)
	select {
	case m.entered <- struct{}{}:
	default:
	}
	if m.fail != nil {
		if err := m.fail(prompt); err != nil {
			return "", err
		}
	}
	if m.free != nil && m.free(prompt) {
		return "1", nil
	}
	select {
	case <-m.release:
		return "1", nil
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// TestCompleteRowsWorkersExit checks CompleteRows returns only after every
// worker has exited, on success and after a failure that cancels the
// workers blocked in the model on later rows (the rows below it answer at
// once): no call is still inside the model when it returns, and the
// goroutine count settles back to where it started.
func TestCompleteRowsWorkersExit(t *testing.T) {
	f := idFrame(t, 500)
	for _, tc := range []struct {
		name string
		fail func(string) error
	}{
		{"success", nil},
		{"failure", func(p string) error {
			if rowOf(p) == 5 {
				return errors.New("refused")
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &activeModel{entered: make(chan struct{}, 1), release: make(chan struct{})}
			m.fail = tc.fail
			m.free = func(p string) bool { return rowOf(p) < 5 }
			g := New(m, Options{Concurrency: 64})
			before := runtime.NumGoroutine()
			if tc.fail == nil {
				close(m.release)
			}
			_, err := core.CompleteRows(context.Background(), g, f, "Density", f.Len())
			if (err != nil) != (tc.fail != nil) {
				t.Fatalf("err = %v", err)
			}
			if n := m.active.Load(); n != 0 {
				t.Fatalf("%d calls still inside the model after CompleteRows returned", n)
			}
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
				}
				runtime.Gosched()
			}
		})
	}
}

// TestCompleteRowsCallerCancel cancels the caller's context while rows are
// blocked in the model: the context's own error comes back, through a
// gateway of any window and from a plain model alike.
func TestCompleteRowsCallerCancel(t *testing.T) {
	f := idFrame(t, 300)
	for _, concurrency := range []int{0, 1, 2, 8, 16} {
		name := fmt.Sprint("concurrency=", concurrency)
		if concurrency == 0 {
			name = "plain"
		}
		t.Run(name, func(t *testing.T) {
			m := &activeModel{entered: make(chan struct{}, 1), release: make(chan struct{})}
			var model fm.Model = m
			if concurrency > 0 {
				model = New(m, Options{Concurrency: concurrency})
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				<-m.entered
				cancel()
			}()
			vals, err := core.CompleteRows(ctx, model, f, "Density", f.Len())
			if err != context.Canceled || vals != nil {
				t.Fatalf("CompleteRows = (%d values, %v), want the context's error", len(vals), err)
			}
		})
	}
}

// TestCompleteRowsPanicReachesCaller panics inside the model on one row:
// through a plain model and through gateways of any window, CompleteRows
// re-raises it on the caller's goroutine as a *par.TaskPanic, and the
// goroutine count settles back to where it started.
func TestCompleteRowsPanicReachesCaller(t *testing.T) {
	f := idFrame(t, 200)
	for _, concurrency := range []int{0, 1, 8} {
		name := fmt.Sprint("concurrency=", concurrency)
		if concurrency == 0 {
			name = "plain"
		}
		t.Run(name, func(t *testing.T) {
			var model fm.Model = &countingModel{fail: func(p string) error {
				if rowOf(p) == 5 {
					panic("row 5 exploded")
				}
				return nil
			}}
			if concurrency > 0 {
				model = New(model, Options{Concurrency: concurrency})
			}
			before := runtime.NumGoroutine()
			var raised any
			func() {
				defer func() { raised = recover() }()
				core.CompleteRows(context.Background(), model, f, "Density", f.Len())
			}()
			if tp, ok := raised.(*par.TaskPanic); !ok || tp.Value != "row 5 exploded" {
				t.Fatalf("CompleteRows raised %v (%T), want row 5's *par.TaskPanic", raised, raised)
			}
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
				}
				runtime.Gosched()
			}
		})
	}
}

// windowModel answers row i of idFrame with 3i+1 after a short wait, and
// records the callers inside Complete at once, their peak, the highest
// goroutine count any caller saw and the rows in call order.
type windowModel struct {
	countingModel
	mu                  sync.Mutex
	active, peak, goMax int
	rows                []int
}

func (m *windowModel) Complete(ctx context.Context, prompt string) (string, error) {
	i := rowOf(prompt)
	m.mu.Lock()
	m.active++
	m.peak = max(m.peak, m.active)
	m.goMax = max(m.goMax, runtime.NumGoroutine())
	m.rows = append(m.rows, i)
	m.mu.Unlock()
	time.Sleep(100 * time.Microsecond)
	m.mu.Lock()
	m.active--
	m.mu.Unlock()
	return fmt.Sprint(3*i + 1), nil
}

// TestCompleteRowsWindow checks the row workers follow the model: a plain
// model gets one caller, in row order; a gateway gets as many callers as
// its Concurrency and never more, with the plain pass's values; and the
// goroutines during a pass stay within the window (plus a small constant)
// of where they started, so no worker only queues on the gateway.
func TestCompleteRowsWindow(t *testing.T) {
	const slack = 2
	f := idFrame(t, 200)
	pass := func(t *testing.T, model fm.Model) []float64 {
		t.Helper()
		vals, err := core.CompleteRows(context.Background(), model, f, "Density", f.Len())
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	plain := &windowModel{}
	before := runtime.NumGoroutine()
	want := pass(t, plain)
	if plain.peak != 1 || plain.goMax > before+1+slack {
		t.Fatalf("plain model: %d callers at once, %d goroutines (started at %d)", plain.peak, plain.goMax, before)
	}
	for i, row := range plain.rows {
		if row != i || want[i] != float64(3*i+1) {
			t.Fatalf("plain model: call %d completed row %d = %v", i, row, want[i])
		}
	}
	if len(plain.rows) != f.Len() {
		t.Fatalf("plain model: %d calls for %d rows", len(plain.rows), f.Len())
	}
	for _, concurrency := range []int{1, 2, 8} {
		t.Run(fmt.Sprint("concurrency=", concurrency), func(t *testing.T) {
			m := &windowModel{}
			g := New(m, Options{Concurrency: concurrency})
			before := runtime.NumGoroutine()
			got := pass(t, g)
			if m.peak > concurrency || (concurrency > 1 && m.peak < 2) {
				t.Fatalf("%d callers at once, want at most %d (and more than one)", m.peak, concurrency)
			}
			if m.goMax > before+concurrency+slack {
				t.Fatalf("%d goroutines during the pass, started at %d with a window of %d", m.goMax, before, concurrency)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d = %v, plain pass %v", i, got[i], want[i])
				}
			}
		})
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

// sleepyModel answers through its inner model, then waits d before
// returning, the way a network call would; the wait ends early when ctx is
// cancelled.
type sleepyModel struct {
	fm.Model
	d time.Duration
}

func (m sleepyModel) Complete(ctx context.Context, prompt string) (string, error) {
	resp, err := m.Model.Complete(ctx, prompt)
	if err != nil {
		return "", err
	}
	t := time.NewTimer(m.d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return "", ctx.Err()
	case <-t.C:
		return resp, nil
	}
}

// TestConcurrentRowLevelSpeedup is the gateway's headline number: with an
// 8 ms wait on every simulated call, the row-level loop fanned out at
// concurrency 8 must be at least 4× faster wall-clock than the sequential
// path (the ideal is 8×; 4× leaves headroom for scheduler noise).
func TestConcurrentRowLevelSpeedup(t *testing.T) {
	f, err := dataframe.ReadCSVString(insuranceCSV)
	if err != nil {
		t.Fatal(err)
	}
	// Repeat the frame's rows via Take to get 32 rows, then give each its own
	// Age so every row prompt is distinct: neither dedup nor the cache can
	// merge calls, and the test measures raw fan-out.
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i % f.Len()
	}
	big := f.Take(idx)
	ages := big.Column("Age").Floats()
	for i := range ages {
		ages[i] = float64(20 + i)
	}
	latency := func() fm.Model {
		return sleepyModel{fm.NewSimulated(fm.SimulatedConfig{
			ModelName: "latency-sim",
			Pricing:   fm.Pricing{BaseLatency: 8 * time.Millisecond, PromptPer1k: 0.001, CompletionPer1k: 0.001},
		}), 8 * time.Millisecond}
	}
	ctx := context.Background()

	seqStart := time.Now()
	seqVals, err := core.CompleteRows(ctx, latency(), big, "Density", big.Len())
	if err != nil {
		t.Fatal(err)
	}
	sequential := time.Since(seqStart)

	gw := New(latency(), Options{Concurrency: 8})
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
	sel := New(&countingModel{}, Options{})
	gen := New(&countingModel{}, Options{})
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
	if n := r.Gate(RoleSelector).Usage().Calls + r.Gate(RoleGenerator).Usage().Calls; n != 3 {
		t.Fatalf("router usage: %d calls, want 3", n)
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
	a, b, cc := testKey("a"), testKey("b"), testKey("c")
	c := newLRUCache(2)
	c.put(a, "1")
	c.put(b, "2")
	if _, ok := c.get(a); !ok {
		t.Fatal("a should be resident")
	}
	c.put(cc, "3") // evicts b (least recently used)
	if _, ok := c.get(b); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []digest{a, cc} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s should be resident", k)
		}
	}
	if len(c.items) != 2 {
		t.Fatalf("len = %d", len(c.items))
	}
}

// TestGatewaySpanRoleAndTask checks every fm.call span names the gateway's
// role and the prompt's task, upstream and cached alike.
func TestGatewaySpanRoleAndTask(t *testing.T) {
	var trace bytes.Buffer
	tracer := obs.NewTracer(&trace, "fmgate-test")
	ctx := obs.WithTracer(context.Background(), tracer)
	g := New(echoModel{}, Options{CacheSize: 8, Role: "generator"})
	prompt := "Header\nTask:  " + fm.TaskGenerateFunction + " \nbody"
	for i := 0; i < 2; i++ {
		if _, err := g.Complete(ctx, prompt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Complete(ctx, "no task header"); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var rec struct {
			Name  string            `json:"name"`
			Attrs map[string]string `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Name == "fm.call" {
			got = append(got, rec.Attrs["outcome"]+" "+rec.Attrs["role"]+" "+rec.Attrs["task"])
		}
	}
	want := []string{"upstream generator " + fm.TaskGenerateFunction, "cache generator " + fm.TaskGenerateFunction, "upstream generator "}
	if !slices.Equal(got, want) {
		t.Fatalf("fm.call spans (outcome role task) = %q, want %q", got, want)
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
		"Task:  \nx":                               false,
	}
	for prompt, want := range cases {
		if got := fm.CacheableTask(fm.PromptTask(prompt)); got != want {
			t.Fatalf("CacheableTask(%q) = %v, want %v", prompt, got, want)
		}
	}
}

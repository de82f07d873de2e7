// Package fm provides the foundation-model interface SMARTFEAT interacts
// with, and an offline simulated implementation of it.
//
// The paper drives OpenAI GPT-4 (operator selector) and GPT-3.5-turbo
// (function generator) through LangChain. This repository cannot call a
// network model, so the Simulated type stands in: it accepts the same
// prompt templates, parses them, and answers from a semantic knowledge base
// keyed by column roles inferred from feature names and descriptions — the
// stand-in for the FM's open-world knowledge. Crucially it exercises the
// identical code path (prompt rendering → completion → output parsing →
// function compilation) and accounts calls, tokens, simulated latency and
// dollar cost so the efficiency experiments (Figure 1, §4.2) can be
// reproduced quantitatively.
package fm

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Model is a text-completion interface in the style of an LLM chat API.
// Implementations must be safe for concurrent use: the fmgate gateway fans
// completions out across goroutines.
type Model interface {
	// Complete returns the model's response to a prompt. The context carries
	// cancellation and deadlines from the caller; implementations that
	// simulate latency or wait on upstream capacity must honour it.
	Complete(ctx context.Context, prompt string) (string, error)
	// Usage reports cumulative accounting since the last reset.
	Usage() Usage
	// ResetUsage zeroes the accounting counters.
	ResetUsage()
	// Name identifies the underlying model (e.g. "gpt-4-sim").
	Name() string
}

// Result is the outcome of one asynchronous completion submission.
type Result struct {
	// Text is the completion on success.
	Text string
	// Err is the terminal error, after any retries.
	Err error
	// Cached reports the completion was served without an upstream model
	// call: a cache hit, an in-flight share, or a replayed recording.
	Cached bool
}

// Submitter is a model with an asynchronous form of one completion (the
// fmgate gateway).
type Submitter interface {
	Submit(ctx context.Context, prompt string) <-chan Result
}

// Concurrent marks a model that is safe for concurrent use and admits
// Concurrency upstream calls at once, at least one (the fmgate gateway).
// The row-level completion loop runs that many workers on such a model,
// and one worker, in row order, on any other.
type Concurrent interface {
	Concurrency() int
}

// CacheableTask reports whether a prompt's completion may be served from a
// content-addressed cache. Sampling-strategy prompts are excluded: the
// pipeline intentionally reissues the identical prompt to draw *different*
// candidates (temperature > 0 semantics), so replaying one completion for
// all of them would collapse the sampled space. Deterministic tasks —
// unary proposals, function generation, row-level completions — are safe.
func CacheableTask(prompt string) bool {
	for rest, more := prompt, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		if task, ok := strings.CutPrefix(line, "Task:"); ok {
			switch strings.TrimSpace(task) {
			case TaskSampleBinary, TaskSampleHighOrder, TaskSampleExtractor:
				return false
			}
			return true
		}
	}
	return false
}

// Usage accumulates per-model API accounting. Latency and cost are simulated
// from public GPT-4/GPT-3.5 pricing and throughput so that row-level vs
// feature-level interaction costs can be compared without a network.
type Usage struct {
	Calls            int
	PromptTokens     int
	CompletionTokens int
	SimLatency       time.Duration
	SimCostUSD       float64
}

// Add merges another usage snapshot into u.
func (u *Usage) Add(o Usage) {
	u.Calls += o.Calls
	u.PromptTokens += o.PromptTokens
	u.CompletionTokens += o.CompletionTokens
	u.SimLatency += o.SimLatency
	u.SimCostUSD += o.SimCostUSD
}

// String renders a one-line summary.
func (u Usage) String() string {
	return fmt.Sprintf("calls=%d prompt_tokens=%d completion_tokens=%d sim_latency=%s sim_cost=$%.4f",
		u.Calls, u.PromptTokens, u.CompletionTokens, u.SimLatency.Round(time.Millisecond), u.SimCostUSD)
}

// Pricing describes a simulated model's cost and latency profile.
type Pricing struct {
	// USD per 1k prompt / completion tokens.
	PromptPer1k, CompletionPer1k float64
	// Fixed per-call latency plus per-completion-token generation time.
	BaseLatency     time.Duration
	PerTokenLatency time.Duration
}

// GPT4Pricing approximates the GPT-4 API profile the paper used for the
// operator selector.
var GPT4Pricing = Pricing{
	PromptPer1k:     0.03,
	CompletionPer1k: 0.06,
	BaseLatency:     600 * time.Millisecond,
	PerTokenLatency: 40 * time.Millisecond,
}

// GPT35Pricing approximates the GPT-3.5-turbo profile used for the function
// generator.
var GPT35Pricing = Pricing{
	PromptPer1k:     0.0005,
	CompletionPer1k: 0.0015,
	BaseLatency:     300 * time.Millisecond,
	PerTokenLatency: 15 * time.Millisecond,
}

// accounting implements the Usage bookkeeping shared by Model
// implementations. Safe for concurrent use.
type accounting struct {
	mu      sync.Mutex
	usage   Usage
	pricing Pricing
}

// record books one completed call.
func (a *accounting) record(prompt, completion string) {
	pt, ct := EstimateTokens(prompt), EstimateTokens(completion)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.usage.Calls++
	a.usage.PromptTokens += pt
	a.usage.CompletionTokens += ct
	a.usage.SimLatency += a.pricing.BaseLatency + time.Duration(ct)*a.pricing.PerTokenLatency
	a.usage.SimCostUSD += float64(pt)/1000*a.pricing.PromptPer1k + float64(ct)/1000*a.pricing.CompletionPer1k
}

// Usage implements Model.
func (a *accounting) Usage() Usage {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.usage
}

// ResetUsage implements Model.
func (a *accounting) ResetUsage() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.usage = Usage{}
}

// EstimateTokens approximates a BPE token count the way OpenAI's guidance
// suggests (~4 characters per token for English text).
func EstimateTokens(text string) int {
	if len(text) == 0 {
		return 0
	}
	return len(text)/4 + 1
}

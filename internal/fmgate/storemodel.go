package fmgate

import (
	"context"
	"fmt"

	"smartfeat/internal/fm"
)

// StoreModel serves a replay store as an fm.Model. It is how a recording
// reaches a gateway: New (and PoolGateway, under the pool's backends) swaps a
// replay Store in Options for a StoreModel over it, so a replayed run passes
// through the same cache, singleflight, semaphore and transport layers the
// recording run did, and its pops mirror the recorded appends.
//
// It shares the gateway's content addressing and serves queue.pop's rule:
// cacheable prompts stick at the last recorded outcome, sampling prompts
// miss loudly once their queue is drained, and recorded upstream errors are
// reproduced as errors.
type StoreModel struct {
	store *Store
	name  string
	scope string
}

// NewStoreModel wraps a replay store as a model named name (the recorded
// model's name — content addresses must match the recording) under an
// optional key scope.
func NewStoreModel(store *Store, name, scope string) *StoreModel {
	return &StoreModel{store: store, name: name, scope: scope}
}

// Name implements fm.Model.
func (m *StoreModel) Name() string { return m.name }

// Usage implements fm.Model: replayed completions cost nothing.
func (m *StoreModel) Usage() fm.Usage { return fm.Usage{} }

// ResetUsage implements fm.Model.
func (m *StoreModel) ResetUsage() {}

// Complete implements fm.Model by popping the next recorded outcome.
func (m *StoreModel) Complete(ctx context.Context, prompt string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	key := contentDigest(m.scope, m.name, prompt)
	e, ok := m.store.pop(key, fm.CacheableTask(fm.PromptTask(prompt)))
	if !ok {
		return "", fmt.Errorf("fmgate: replay miss for prompt %s (%s)", key, firstLine(prompt))
	}
	if e.err != "" {
		return "", fmt.Errorf("fmgate: replayed upstream error: %s", e.err)
	}
	return e.response, nil
}

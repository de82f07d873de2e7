package fm

import (
	"context"
	"fmt"
	"sync"
)

// Scripted is a Model that replays a fixed queue of responses — the unit-test
// double for deterministic prompt/response pairs, and the building block for
// golden tests of the operator selector's parsing.
type Scripted struct {
	accounting
	mu        sync.Mutex
	responses []string
	next      int
	// Prompts records every prompt received, for assertions.
	Prompts []string
}

// NewScripted builds a scripted model over the given responses.
func NewScripted(responses ...string) *Scripted {
	return &Scripted{
		accounting: accounting{pricing: GPT35Pricing},
		responses:  responses,
	}
}

// Name implements Model.
func (s *Scripted) Name() string { return "scripted" }

// Complete implements Model, returning the next canned response.
func (s *Scripted) Complete(ctx context.Context, prompt string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Prompts = append(s.Prompts, prompt)
	if s.next >= len(s.responses) {
		return "", fmt.Errorf("fm: scripted model exhausted after %d responses", len(s.responses))
	}
	resp := s.responses[s.next]
	s.next++
	s.record(prompt, resp)
	return resp, nil
}

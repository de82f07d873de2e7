package lease

import (
	"fmt"
	"sync"
)

// MemClaimer is the single-process Claimer: claims are tracked in a map, no
// files, no heartbeats. It exists so the grid runner has exactly one
// acquisition path — the distributed protocol and the in-process fast path
// differ only in which Claimer is plugged in — while keeping single-process
// runs bit-identical to the pre-lease engine (every claim is granted, in
// scheduling order, with zero I/O).
type MemClaimer struct {
	mu   sync.Mutex
	held map[string]bool
}

// NewMem returns an empty in-memory claimer.
func NewMem() *MemClaimer {
	return &MemClaimer{held: make(map[string]bool)}
}

// Claim implements Claimer: granted unless this process already holds key.
func (m *MemClaimer) Claim(key string) (Claim, bool, error) {
	if err := ValidKey(key); err != nil {
		return nil, false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held[key] {
		return nil, false, fmt.Errorf("lease: %q already claimed by this claimer", key)
	}
	m.held[key] = true
	return &memClaim{m: m, key: key}, true, nil
}

// Holder implements Claimer: an in-memory claimer has no foreign peers, so
// no cell is ever reported as held elsewhere.
func (m *MemClaimer) Holder(string) (Info, bool) { return Info{}, false }

type memClaim struct {
	m   *MemClaimer
	key string

	mu       sync.Mutex
	released bool
}

func (c *memClaim) Release() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.released {
		return nil
	}
	c.released = true
	c.m.mu.Lock()
	delete(c.m.held, c.key)
	c.m.mu.Unlock()
	return nil
}

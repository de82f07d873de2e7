package lease

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"smartfeat/internal/obs"
)

// Options tunes a file claimer. The zero value is production-ready; tests
// shrink TTL to exercise stale takeover in milliseconds.
type Options struct {
	// Worker identifies this process in lease files and peer diagnostics.
	// Empty defaults to "host:pid".
	Worker string
	// TTL is the staleness threshold (default DefaultTTL). A lease not
	// heartbeated for TTL may be reaped by any peer. Held leases are
	// heartbeated every TTL/3, so a holder misses two beats before a peer
	// may take its cell.
	TTL time.Duration
}

// withDefaults normalizes the options.
func (o Options) withDefaults() Options {
	if o.Worker == "" {
		host, _ := os.Hostname()
		o.Worker = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if o.TTL <= 0 {
		o.TTL = DefaultTTL
	}
	return o
}

// FileClaimer coordinates cell claims through lease files in one shared
// directory (runs/<name>/leases/). Claims are won by exclusive file
// creation; a background goroutine heartbeats every held lease by bumping
// its mtime until Release or Close.
type FileClaimer struct {
	dir  string
	opts Options
	ins  claimerObs

	mu     sync.Mutex
	held   map[string]*fileClaim
	closed bool
	stop   chan struct{}
	done   chan struct{}
}

// New opens (creating if needed) a lease directory.
func New(dir string, opts Options) (*FileClaimer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lease: creating lease dir: %w", err)
	}
	c := &FileClaimer{
		dir:  dir,
		opts: opts.withDefaults(),
		held: make(map[string]*fileClaim),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	reg := obs.Default
	reg.RegisterCounter("lease_claims_total", "Cell claims won by exclusive lease creation.", &c.ins.won, "outcome", "won")
	reg.RegisterCounter("lease_claims_total", "Cell claims declined because a live peer holds the lease.", &c.ins.held, "outcome", "held")
	reg.RegisterCounter("lease_reclaims_total", "Stale leases reaped from presumed-dead peers.", &c.ins.reaps)
	reg.RegisterCounter("lease_heartbeats_total", "Lease mtime refreshes written.", &c.ins.heartbeats)
	reg.RegisterCounter("lease_lost_total", "Held claims lost to a peer reap (missed heartbeats).", &c.ins.lost)
	reg.RegisterCounter("lease_releases_total", "Claims released cleanly.", &c.ins.releases)
	go c.heartbeatLoop()
	return c, nil
}

// claimerObs are a claimer's registry-backed coordination counters.
type claimerObs struct {
	won        obs.Counter
	held       obs.Counter
	reaps      obs.Counter
	heartbeats obs.Counter
	lost       obs.Counter
	releases   obs.Counter
}

// path is the cell's lease file.
func (c *FileClaimer) path(key string) string { return filepath.Join(c.dir, key+".lease") }

// Claim implements Claimer: try exclusive creation; on EEXIST decide live
// (back off) vs stale (reap and retry). The retry bound covers reap races —
// losing the rename to a peer — not livelock on a fresh lease.
func (c *FileClaimer) Claim(key string) (Claim, bool, error) {
	if err := ValidKey(key); err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, fmt.Errorf("lease: claimer is closed")
	}
	if _, ours := c.held[key]; ours {
		c.mu.Unlock()
		return nil, false, fmt.Errorf("lease: %q already claimed by this claimer", key)
	}
	c.mu.Unlock()

	path := c.path(key)
	for attempt := 0; attempt < 8; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		switch {
		case err == nil:
			return c.acquired(key, path, f)
		case !os.IsExist(err):
			return nil, false, fmt.Errorf("lease: claiming %q: %w", key, err)
		}
		st, err := os.Stat(path)
		switch {
		case os.IsNotExist(err):
			continue // released between create and stat: retry immediately
		case err != nil:
			return nil, false, fmt.Errorf("lease: inspecting %q: %w", key, err)
		case time.Since(st.ModTime()) <= c.opts.TTL:
			c.ins.held.Inc()
			return nil, false, nil // live peer holds the cell
		}
		if err := c.reap(key, path); err != nil {
			return nil, false, err
		}
		// Reap resolved (we won the rename, lost it, or the lease turned out
		// fresh after all): loop back to the exclusive create.
	}
	// Persistent contention: treat as held — the caller retries later anyway.
	c.ins.held.Inc()
	return nil, false, nil
}

// acquired writes the holder record and registers the heartbeat.
func (c *FileClaimer) acquired(key, path string, f *os.File) (Claim, bool, error) {
	info := Info{
		Worker:     c.opts.Worker,
		PID:        os.Getpid(),
		AcquiredAt: time.Now().UTC().Format(time.RFC3339Nano),
	}
	raw, err := json.Marshal(info)
	if err == nil {
		_, err = f.Write(append(raw, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return nil, false, fmt.Errorf("lease: writing %q: %w", key, err)
	}
	cl := &fileClaim{c: c, key: key, path: path, info: info}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		os.Remove(path)
		return nil, false, fmt.Errorf("lease: claimer is closed")
	}
	c.held[key] = cl
	c.ins.won.Inc()
	return cl, true, nil
}

// reap takes a stale lease out of the way so the claim loop can recreate it.
// The stale file is renamed to a per-reaper tombstone first — rename is
// atomic, so of any number of concurrent reapers exactly one wins and the
// rest see ENOENT. If the renamed lease turns out to have been refreshed
// between our staleness check and the rename (the owner was alive after
// all), we put it back; the owner may have observed the gap and marked its
// claim lost, in which case the cell is re-executed — benign, see the
// package comment.
func (c *FileClaimer) reap(key, path string) error {
	tomb := path + ".reap-" + sanitizeComponent(c.opts.Worker)
	if err := os.Rename(path, tomb); err != nil {
		if os.IsNotExist(err) {
			return nil // a peer reaped (or the owner released) first
		}
		return fmt.Errorf("lease: reaping %q: %w", key, err)
	}
	if st, err := os.Stat(tomb); err == nil && time.Since(st.ModTime()) <= c.opts.TTL {
		// Refreshed in the window: restore best-effort and report it held.
		os.Rename(tomb, path)
		return nil
	}
	if err := os.Remove(tomb); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("lease: clearing reaped %q: %w", key, err)
	}
	c.ins.reaps.Inc()
	return nil
}

// Holder implements Claimer: a live (non-stale) lease file names its owner.
func (c *FileClaimer) Holder(key string) (Info, bool) {
	if ValidKey(key) != nil {
		return Info{}, false
	}
	path := c.path(key)
	st, err := os.Stat(path)
	if err != nil || time.Since(st.ModTime()) > c.opts.TTL {
		return Info{}, false
	}
	info, ok := readInfo(path)
	if !ok {
		return Info{}, false
	}
	return info, true
}

// Close stops the heartbeat goroutine. Held claims are left on disk — the
// caller releases them individually; after Close they simply age toward
// reclaimability like any crashed worker's.
func (c *FileClaimer) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	<-c.done
	return nil
}

// heartbeatLoop refreshes every held lease's mtime every TTL/3.
func (c *FileClaimer) heartbeatLoop() {
	defer close(c.done)
	t := time.NewTicker(c.opts.TTL / 3)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.refresh()
		}
	}
}

// refresh bumps each held lease's mtime in place. A missing file means a
// peer reaped us (we were presumed dead): mark the claim lost rather than
// resurrecting the lease — the peer owns the cell now.
func (c *FileClaimer) refresh() {
	c.mu.Lock()
	claims := make([]*fileClaim, 0, len(c.held))
	for _, cl := range c.held {
		claims = append(claims, cl)
	}
	c.mu.Unlock()
	now := time.Now()
	for _, cl := range claims {
		if err := os.Chtimes(cl.path, now, now); err != nil && os.IsNotExist(err) {
			cl.lost.Store(true)
			c.ins.lost.Inc()
			c.mu.Lock()
			delete(c.held, cl.key)
			c.mu.Unlock()
		} else if err == nil {
			c.ins.heartbeats.Inc()
		}
	}
}

// fileClaim is one held lease.
type fileClaim struct {
	c        *FileClaimer
	key      string
	path     string
	info     Info
	lost     atomic.Bool
	released atomic.Bool
}

// Release implements Claim: deregister from the heartbeat and remove the
// lease file so peers observe the cell free (or completed) immediately.
// Before removing, the on-disk holder record is compared against our own: a
// lease reaped and re-acquired by a peer (we missed heartbeats long enough
// to be presumed dead) must not be deleted out from under its new owner —
// such a claim is marked lost instead.
func (cl *fileClaim) Release() error {
	if !cl.released.CompareAndSwap(false, true) {
		return nil
	}
	cl.c.mu.Lock()
	delete(cl.c.held, cl.key)
	cl.c.mu.Unlock()
	if cl.lost.Load() {
		return nil
	}
	if cur, ok := readInfo(cl.path); !ok || cur != cl.info {
		cl.lost.Store(true)
		cl.c.ins.lost.Inc()
		return nil
	}
	if err := os.Remove(cl.path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("lease: releasing %q: %w", cl.key, err)
	}
	cl.c.ins.releases.Inc()
	return nil
}

// sanitizeComponent maps a worker id onto the filesystem-safe alphabet for
// tombstone names.
func sanitizeComponent(s string) string {
	b := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '+', c == '-':
			b[i] = c
		default:
			b[i] = '-'
		}
	}
	return string(b)
}

package lease

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fastOpts keeps takeover tests in the millisecond range. Its TTL leaves a
// heartbeat (every TTL/3) 200ms of slack, so a loaded CI box that delays a
// tick cannot fake a stale lease.
func fastOpts(worker string) Options {
	return Options{Worker: worker, TTL: 300 * time.Millisecond}
}

// heartbeat is the cadence a claimer with opts refreshes its leases at.
func heartbeat(opts Options) time.Duration { return opts.TTL / 3 }

// newClaimer builds a FileClaimer over dir, closing it with the test.
func newClaimer(t *testing.T, dir string, opts Options) *FileClaimer {
	t.Helper()
	c, err := New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClaimRace pins the contention contract: any number of claimers racing
// for one cell produce exactly one winner; losers get ok=false (no error)
// and Holder names the winner.
func TestClaimRace(t *testing.T) {
	dir := t.TempDir()
	const racers = 8
	claimers := make([]*FileClaimer, racers)
	for i := range claimers {
		claimers[i] = newClaimer(t, dir, Options{Worker: string(rune('a' + i))})
	}

	var wg sync.WaitGroup
	wins := make([]Claim, racers)
	errs := make([]error, racers)
	start := make(chan struct{})
	for i := range claimers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			cl, ok, err := claimers[i].Claim("Tennis__SMARTFEAT")
			errs[i] = err
			if ok {
				wins[i] = cl
			}
		}(i)
	}
	close(start)
	wg.Wait()

	winner := -1
	for i := range claimers {
		if errs[i] != nil {
			t.Fatalf("claimer %d errored: %v", i, errs[i])
		}
		if wins[i] != nil {
			if winner >= 0 {
				t.Fatalf("claimers %d and %d both won", winner, i)
			}
			winner = i
		}
	}
	if winner < 0 {
		t.Fatal("no claimer won")
	}
	// Every loser sees the winner as the live holder.
	info, held := claimers[(winner+1)%racers].Holder("Tennis__SMARTFEAT")
	if want := string(rune('a' + winner)); !held || info.Worker != want {
		t.Fatalf("holder = %+v (held=%v), want worker %q", info, held, want)
	}
	// Release frees the cell for the next claimer.
	if err := wins[winner].Release(); err != nil {
		t.Fatal(err)
	}
	if _, held := claimers[winner].Holder("Tennis__SMARTFEAT"); held {
		t.Fatal("released lease still reported held")
	}
	if _, ok, err := claimers[(winner+1)%racers].Claim("Tennis__SMARTFEAT"); err != nil || !ok {
		t.Fatalf("claim after release: ok=%v err=%v", ok, err)
	}
}

// TestHeartbeatKeepsLeaseLive pins that an actively heartbeated lease is
// never reaped, even well past TTL.
func TestHeartbeatKeepsLeaseLive(t *testing.T) {
	dir := t.TempDir()
	a := newClaimer(t, dir, fastOpts("alive"))
	b := newClaimer(t, dir, fastOpts("thief"))

	cl, ok, err := a.Claim("cell")
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	deadline := time.Now().Add(3 * fastOpts("").TTL)
	for time.Now().Before(deadline) {
		if _, ok, err := b.Claim("cell"); err != nil {
			t.Fatal(err)
		} else if ok {
			t.Fatal("heartbeated lease was stolen")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if a.ins.lost.Value() != 0 {
		t.Fatal("heartbeated lease reported lost")
	}
	if err := cl.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleTakeover pins crashed-worker reclaim: a lease whose holder
// stopped heartbeating is reaped after TTL, and the original holder's
// Release does not clobber the new owner's lease.
func TestStaleTakeover(t *testing.T) {
	dir := t.TempDir()
	dead := newClaimer(t, dir, fastOpts("dead"))
	cl, ok, err := dead.Claim("cell")
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	// "Crash": stop heartbeating without releasing.
	dead.Close()

	var won Claim
	opts := fastOpts("heir")
	heir := newClaimer(t, dir, opts)
	deadline := time.Now().Add(10 * opts.TTL)
	for won == nil && time.Now().Before(deadline) {
		c, ok, err := heir.Claim("cell")
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			won = c
			break
		}
		time.Sleep(heartbeat(opts))
	}
	if won == nil {
		t.Fatal("stale lease was never reclaimed")
	}
	info, held := heir.Holder("cell")
	if !held || info.Worker != "heir" {
		t.Fatalf("holder after takeover = %+v (held=%v)", info, held)
	}
	// The dead worker's release must not remove the heir's lease.
	if err := cl.Release(); err != nil {
		t.Fatal(err)
	}
	if _, held := heir.Holder("cell"); !held {
		t.Fatal("stale holder's release clobbered the new lease")
	}
	if err := won.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestLostDetection pins the owner-side view of a takeover: once reaped, the
// owner's heartbeat notices the missing file, marks the claim lost and
// counts it (lease_lost_total).
func TestLostDetection(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts("owner")
	c := newClaimer(t, dir, opts)
	cl, ok, err := c.Claim("cell")
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	// Simulate a peer's reap.
	if err := os.Remove(filepath.Join(dir, "cell.lease")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * heartbeat(opts))
	for c.ins.lost.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(heartbeat(opts))
	}
	if c.ins.lost.Value() == 0 {
		t.Fatal("reaped lease never reported lost")
	}
	if err := cl.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestMemClaimer pins the in-process claimer used by single-process runs.
func TestMemClaimer(t *testing.T) {
	m := NewMem()
	cl, ok, err := m.Claim("cell")
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if _, _, err := m.Claim("cell"); err == nil {
		t.Fatal("double claim of one key should error (plan bug)")
	}
	if _, held := m.Holder("cell"); held {
		t.Fatal("mem claimer has no foreign holders")
	}
	if err := cl.Release(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := m.Claim("cell"); err != nil || !ok {
		t.Fatalf("re-claim after release: ok=%v err=%v", ok, err)
	}
	if _, _, err := m.Claim("../escape"); err == nil {
		t.Fatal("path-escaping key accepted")
	}
}

// TestMutex pins the manifest lock: mutual exclusion under contention and
// stale-lock recovery.
func TestMutex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.lock")
	mu := NewMutex(path, time.Second)
	var counter, max int32
	var wg sync.WaitGroup
	var inner sync.Mutex
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if err := mu.Lock(); err != nil {
					t.Error(err)
					return
				}
				inner.Lock()
				counter++
				if counter > max {
					max = counter
				}
				inner.Unlock()
				time.Sleep(time.Millisecond)
				inner.Lock()
				counter--
				inner.Unlock()
				if err := mu.Unlock(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if max != 1 {
		t.Fatalf("critical section admitted %d holders", max)
	}

	// A crashed holder's lock (old mtime, never unlocked) is reaped.
	stale := NewMutex(path, 50*time.Millisecond)
	if err := stale.Lock(); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		if err := stale.Lock(); err != nil {
			done <- err
			return
		}
		done <- stale.Unlock()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stale lock was never reaped")
	}
}

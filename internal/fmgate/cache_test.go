package fmgate

import (
	"container/list"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"smartfeat/internal/fm"
)

// oracleLRU is the map+list LRU the slab cache is checked against: front is
// the most recently used entry.
type oracleLRU struct {
	cap   int
	bytes int64
	order *list.List // of *oracleEntry
	items map[digest]*list.Element
}

type oracleEntry struct {
	key  digest
	text string
}

func (o *oracleLRU) get(key digest) (string, bool) {
	el, ok := o.items[key]
	if !ok {
		return "", false
	}
	o.order.MoveToFront(el)
	return el.Value.(*oracleEntry).text, true
}

func (o *oracleLRU) put(key digest, text string) (evicted bool, delta int64) {
	if el, ok := o.items[key]; ok {
		e := el.Value.(*oracleEntry)
		delta = int64(len(text) - len(e.text))
		e.text = text
		o.order.MoveToFront(el)
	} else {
		o.items[key] = o.order.PushFront(&oracleEntry{key: key, text: text})
		delta = int64(len(key) + len(text))
		if o.order.Len() > o.cap {
			e := o.order.Remove(o.order.Back()).(*oracleEntry)
			delete(o.items, e.key)
			delta -= int64(len(e.key) + len(e.text))
			evicted = true
		}
	}
	o.bytes += delta
	return evicted, delta
}

// recency lists c's keys from most to least recently used, walking the slab
// links both ways so a broken prev link fails as surely as a broken next.
func recency(t *testing.T, c *lruCache) []digest {
	t.Helper()
	var fwd []digest
	prev := int32(-1)
	for i := c.head; i >= 0; i = c.slab[i].next {
		if c.slab[i].prev != prev {
			t.Fatalf("slot %d prev = %d, want %d", i, c.slab[i].prev, prev)
		}
		fwd = append(fwd, c.slab[i].key)
		prev = i
	}
	if c.tail != prev {
		t.Fatalf("tail = %d, want %d", c.tail, prev)
	}
	return fwd
}

// TestLRUCacheMatchesOracle drives the slab LRU and a map+list oracle
// through the same random gets and puts: every hit and miss, every eviction
// (and so the eviction order), every refresh and the resident-byte
// accounting behind fmcache_bytes must agree, and so must the recency order
// after each step.
func TestLRUCacheMatchesOracle(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 5, 8} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(capacity)))
			keys := make([]digest, 2*capacity+3)
			for i := range keys {
				keys[i] = testKey(fmt.Sprintf("key-%d", i))
			}
			c := newLRUCache(capacity)
			o := &oracleLRU{cap: capacity, order: list.New(), items: make(map[digest]*list.Element)}
			for step := 0; step < 2000; step++ {
				key := keys[rng.Intn(len(keys))]
				if rng.Intn(3) == 0 {
					got, gotOK := c.get(key)
					want, wantOK := o.get(key)
					if got != want || gotOK != wantOK {
						t.Fatalf("cap %d seed %d step %d: get = (%q, %v), oracle (%q, %v)", capacity, seed, step, got, gotOK, want, wantOK)
					}
				} else {
					text := fmt.Sprintf("text-%d-%s", step, string(make([]byte, rng.Intn(20))))
					ev, delta := c.put(key, text)
					wantEv, wantDelta := o.put(key, text)
					if ev != wantEv || delta != wantDelta {
						t.Fatalf("cap %d seed %d step %d: put = (%v, %d), oracle (%v, %d)", capacity, seed, step, ev, delta, wantEv, wantDelta)
					}
				}
				if c.bytes != o.bytes {
					t.Fatalf("cap %d seed %d step %d: bytes = %d, oracle %d", capacity, seed, step, c.bytes, o.bytes)
				}
				got := recency(t, c)
				if len(got) != o.order.Len() || len(c.items) != len(o.items) {
					t.Fatalf("cap %d seed %d step %d: %d linked, %d indexed, oracle %d", capacity, seed, step, len(got), len(c.items), o.order.Len())
				}
				el := o.order.Front()
				for i, k := range got {
					if want := el.Value.(*oracleEntry).key; k != want {
						t.Fatalf("cap %d seed %d step %d: recency[%d] = %s, oracle %s", capacity, seed, step, i, k, want)
					}
					if c.items[k.prefix()] < 0 || c.slab[c.items[k.prefix()]].key != k {
						t.Fatalf("cap %d seed %d step %d: index of %s points at the wrong slot", capacity, seed, step, k)
					}
					el = el.Next()
				}
			}
			if len(c.slab) > capacity {
				t.Fatalf("cap %d: slab grew to %d slots", capacity, len(c.slab))
			}
		}
	}
}

// TestLRUCachePrefixCollision forces two keys that share the index's 8-byte
// prefix: neither is ever served the other's text, a put of one takes the
// other's slot over without an eviction, and the resident bytes follow the
// text that stays.
func TestLRUCachePrefixCollision(t *testing.T) {
	a := testKey("a")
	b := a
	b[15] ^= 1
	other := testKey("other")
	if a.prefix() != b.prefix() || a == b || other.prefix() == a.prefix() {
		t.Fatal("keys do not collide on the prefix as the test needs")
	}
	c := newLRUCache(2)
	c.put(a, "text-a")
	c.put(other, "text-other")
	if text, ok := c.get(b); ok {
		t.Fatalf("get(b) = %q, want a miss while a holds the slot", text)
	}
	bytes := c.bytes
	evicted, delta := c.put(b, "longer-text-b")
	if evicted || delta != int64(len("longer-text-b")-len("text-a")) || c.bytes != bytes+delta {
		t.Fatalf("put(b) = (%v, %d), bytes %d → %d", evicted, delta, bytes, c.bytes)
	}
	if text, ok := c.get(a); ok {
		t.Fatalf("get(a) = %q, want a miss after b took the slot", text)
	}
	if text, ok := c.get(b); !ok || text != "longer-text-b" {
		t.Fatalf("get(b) = (%q, %v), want b's text", text, ok)
	}
	if got := recency(t, c); len(got) != 2 || got[0] != b || got[1] != other || len(c.items) != 2 {
		t.Fatalf("recency %v with %d indexed, want [b other] and 2", got, len(c.items))
	}
	if want := int64(2*len(a) + len("longer-text-b") + len("text-other")); c.bytes != want {
		t.Fatalf("bytes = %d, want %d", c.bytes, want)
	}
}

// TestGatewayHitAllocs holds a cached Complete at zero allocations: the
// content address is hashed from a pooled buffer, the LRU is looked up by
// its binary digest, and fm.CacheableTask walks the prompt in place.
func TestGatewayHitAllocs(t *testing.T) {
	g := New(echoModel{}, Options{CacheSize: 8})
	ctx := context.Background()
	prompt := "Task: " + fm.TaskCompleteRow + "\nRow: Age: 21, City: SF, X: ?\n"
	if _, err := g.Complete(ctx, prompt); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := g.Complete(ctx, prompt); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("cached Complete makes %v allocations, want 0", n)
	}
	if m := g.Metrics(); m.UpstreamCalls != 1 || m.CacheHits < 200 {
		t.Fatalf("metrics = %+v, want 1 upstream call and every repeat a hit", m)
	}
}

package fmgate

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartfeat/internal/obs"
)

// testKey is the content address the disk-tier tests file a named entry
// under.
func testKey(name string) digest { return contentDigest("", "test", name) }

// writeShard appends storeEntry JSON lines to a shard file in dir.
func writeShard(t *testing.T, dir, name string, entries ...storeEntry) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, e := range entries {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			t.Fatal(err)
		}
	}
}

func openTestDiskCache(t *testing.T, dir string, opts DiskCacheOptions) *DiskCache {
	t.Helper()
	d, err := OpenDiskCache(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestDiskCacheReadThrough exercises the core replay semantics of the disk
// tier: sticky keys pop in order and re-serve their last outcome when
// exhausted; sampling keys pop in order and miss when exhausted; recorded
// upstream errors are served faithfully.
func TestDiskCacheReadThrough(t *testing.T) {
	dir := t.TempDir()
	writeShard(t, dir, "cell-a.jsonl",
		storeEntry{Key: testKey("k-sticky").String(), Response: "r1"},
		storeEntry{Key: testKey("k-sample").String(), Response: "s1"},
		storeEntry{Key: testKey("k-sample").String(), Response: "s2"},
		storeEntry{Key: testKey("k-err").String(), Error: "boom"},
	)
	d := openTestDiskCache(t, dir, DiskCacheOptions{ConfigHash: "h1"})
	for i := 0; i < 3; i++ {
		text, errMsg, ok := d.Get(testKey("k-sticky"), true)
		if !ok || text != "r1" || errMsg != "" {
			t.Fatalf("sticky get %d = (%q, %q, %v), want (r1, , true)", i, text, errMsg, ok)
		}
	}
	for i, want := range []string{"s1", "s2"} {
		text, _, ok := d.Get(testKey("k-sample"), false)
		if !ok || text != want {
			t.Fatalf("sample get %d = (%q, %v), want (%q, true)", i, text, ok, want)
		}
	}
	if _, _, ok := d.Get(testKey("k-sample"), false); ok {
		t.Fatal("exhausted sampling key should miss, not re-serve")
	}
	if _, errMsg, ok := d.Get(testKey("k-err"), true); !ok || errMsg != "boom" {
		t.Fatalf("error entry = (%q, %v), want (boom, true)", errMsg, ok)
	}
	if _, _, ok := d.Get(testKey("k-absent"), true); ok {
		t.Fatal("absent key should miss")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d.Get(testKey("k-sticky"), true); ok {
		t.Fatal("closed cache must miss")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestDiskCachePeerAppendVisible checks the incremental rescan: completions a
// peer appends after open become visible once the refresh window elapses, and
// a trailing partial line (peer mid-append) is left unconsumed until its
// newline lands.
func TestDiskCachePeerAppendVisible(t *testing.T) {
	dir := t.TempDir()
	d := openTestDiskCache(t, dir, DiskCacheOptions{Refresh: time.Millisecond})
	if _, _, ok := d.Get(testKey("k1"), true); ok {
		t.Fatal("empty dir should miss")
	}
	writeShard(t, dir, "cell-peer.jsonl", storeEntry{Key: testKey("k1").String(), Response: "v1"})
	// Append a torn record (no trailing newline) after the complete one.
	f, err := os.OpenFile(filepath.Join(dir, "cell-peer.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"` + testKey("k2").String() + `","response":"v2"`); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if text, _, ok := d.Get(testKey("k1"), true); !ok || text != "v1" {
		t.Fatalf("peer append not visible: (%q, %v)", text, ok)
	}
	time.Sleep(5 * time.Millisecond)
	if _, _, ok := d.Get(testKey("k2"), true); ok {
		t.Fatal("torn trailing record must not be ingested")
	}
	if _, err := f.WriteString("}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	time.Sleep(5 * time.Millisecond)
	if text, _, ok := d.Get(testKey("k2"), true); !ok || text != "v2" {
		t.Fatalf("completed record not ingested: (%q, %v)", text, ok)
	}
}

// TestDiskCacheSkipsBadLines: the disk tier skips a line past
// maxRecordBytes and a line whose key is not a content address, as it skips
// unparsable lines, and keeps ingesting the lines after them. An over-cap
// line a peer has not finished is left unconsumed until its newline lands.
func TestDiskCacheSkipsBadLines(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "cell-a.jsonl")
	appendRaw := func(s string) {
		t.Helper()
		f, err := os.OpenFile(shard, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(s); err != nil {
			t.Fatal(err)
		}
	}
	consumed := func(d *DiskCache) int64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.files["cell-a.jsonl"]
	}
	size := func() int64 {
		info, err := os.Stat(shard)
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	appendRaw(recordLine(testKey("k1").String(), 80) +
		recordLine(testKey("k2").String(), maxRecordBytes+1) +
		recordLine("k3", 80) +
		recordLine(testKey("k4").String(), 80))
	d := openTestDiskCache(t, dir, DiskCacheOptions{Refresh: time.Millisecond})
	for name, want := range map[string]bool{"k1": true, "k2": false, "k4": true} {
		if _, _, ok := d.Get(testKey(name), true); ok != want {
			t.Fatalf("%s served = %v, want %v", name, ok, want)
		}
	}
	if got, want := consumed(d), size(); got != want {
		t.Fatalf("consumed %d of %d bytes", got, want)
	}

	before := size()
	appendRaw(strings.TrimSuffix(recordLine(testKey("k5").String(), maxRecordBytes+1), "\n"))
	time.Sleep(5 * time.Millisecond)
	if _, _, ok := d.Get(testKey("k5"), true); ok {
		t.Fatal("over-cap record served")
	}
	if got := consumed(d); got != before {
		t.Fatalf("unfinished over-cap line consumed: offset %d, want %d", got, before)
	}
	appendRaw("\n" + recordLine(testKey("k6").String(), 80))
	time.Sleep(5 * time.Millisecond)
	if _, _, ok := d.Get(testKey("k6"), true); !ok {
		t.Fatal("record after a finished over-cap line not ingested")
	}
	if _, _, ok := d.Get(testKey("k5"), true); ok {
		t.Fatal("over-cap record served")
	}
	if got, want := consumed(d), size(); got != want {
		t.Fatalf("consumed %d of %d bytes", got, want)
	}
}

// TestDiskCacheConfigMismatch: a cache dir stamped with a different config
// hash must refuse to open — serving completions recorded under different
// seeds or budgets would silently corrupt results.
func TestDiskCacheConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	d := openTestDiskCache(t, dir, DiskCacheOptions{ConfigHash: "hash-A"})
	d.Close()
	if _, err := OpenDiskCache(dir, DiskCacheOptions{ConfigHash: "hash-B"}); !errors.Is(err, ErrStoreSetConfigMismatch) {
		t.Fatalf("mismatched hash: err = %v, want ErrStoreSetConfigMismatch", err)
	}
	// An empty hash skips the check both ways.
	d2, err := OpenDiskCache(dir, DiskCacheOptions{})
	if err != nil {
		t.Fatalf("empty hash should open: %v", err)
	}
	d2.Close()
}

// TestDiskCacheMultiSourceKeys: a key fed by more than one shard file has no
// meaningful replay order, so it is served only when sticky AND every entry
// is identical (a deterministic cacheable completion recorded by several
// cells); anything else misses to upstream.
func TestDiskCacheMultiSourceKeys(t *testing.T) {
	dir := t.TempDir()
	writeShard(t, dir, "cell-a.jsonl",
		storeEntry{Key: testKey("k-uniform").String(), Response: "same"},
		storeEntry{Key: testKey("k-mixed").String(), Response: "from-a"},
	)
	writeShard(t, dir, "cell-b.jsonl",
		storeEntry{Key: testKey("k-uniform").String(), Response: "same"},
		storeEntry{Key: testKey("k-mixed").String(), Response: "from-b"},
	)
	d := openTestDiskCache(t, dir, DiskCacheOptions{})
	if text, _, ok := d.Get(testKey("k-uniform"), true); !ok || text != "same" {
		t.Fatalf("uniform multi-source sticky key = (%q, %v), want (same, true)", text, ok)
	}
	if _, _, ok := d.Get(testKey("k-uniform"), false); ok {
		t.Fatal("multi-source sampling key must miss")
	}
	if _, _, ok := d.Get(testKey("k-mixed"), true); ok {
		t.Fatal("divergent multi-source key must miss")
	}
}

// TestDiskCacheLearnSharedWithPeers: a live-enabled cache appends unpersisted
// completions to its own live shard, a peer cache serves them, and — the
// provenance rule — the learning process itself never re-serves its own
// learned entries (a repeat must go upstream exactly as it would uncached).
func TestDiskCacheLearnSharedWithPeers(t *testing.T) {
	dir := t.TempDir()
	a := openTestDiskCache(t, dir, DiskCacheOptions{Worker: "wA", Live: true})
	a.Learn(testKey("k1"), "prompt one", "learned", "", false)
	if _, _, ok := a.Get(testKey("k1"), true); ok {
		t.Fatal("self-learned entry must not be re-served to the learner")
	}
	b := openTestDiskCache(t, dir, DiskCacheOptions{Worker: "wB", Live: true})
	if text, _, ok := b.Get(testKey("k1"), true); !ok || text != "learned" {
		t.Fatalf("peer should serve learned entry: (%q, %v)", text, ok)
	}
	// persisted=true means a record shard captured it: no live append.
	a.Learn(testKey("k2"), "prompt two", "persisted elsewhere", "", true)
	c := openTestDiskCache(t, dir, DiskCacheOptions{Worker: "wC"})
	if _, _, ok := c.Get(testKey("k2"), true); ok {
		t.Fatal("persisted completion must not be double-written to the live shard")
	}
}

// TestDiskCacheExclude: a shard this process is about to record must never be
// ingested (we would replay our own in-progress writes); paths outside the
// cache dir are ignored.
func TestDiskCacheExclude(t *testing.T) {
	dir := t.TempDir()
	d := openTestDiskCache(t, dir, DiskCacheOptions{Refresh: time.Millisecond})
	d.Exclude(filepath.Join(dir, "cell-own.jsonl"))
	d.Exclude(filepath.Join(t.TempDir(), "cell-elsewhere.jsonl")) // no-op
	writeShard(t, dir, "cell-own.jsonl", storeEntry{Key: testKey("k1").String(), Response: "ours"})
	time.Sleep(5 * time.Millisecond)
	if _, _, ok := d.Get(testKey("k1"), true); ok {
		t.Fatal("excluded shard must not be ingested")
	}
}

// TestDiskCacheTruncatedShardReingested: a shard shorter than its consumed
// offset was re-recorded by a resumed run; the cache re-reads it from the
// start instead of waiting forever at a dead offset.
func TestDiskCacheTruncatedShardReingested(t *testing.T) {
	dir := t.TempDir()
	writeShard(t, dir, "cell-a.jsonl",
		storeEntry{Key: testKey("k1").String(), Response: "v1"},
		storeEntry{Key: testKey("k1").String(), Response: "v1-second-entry-making-the-file-longer"},
	)
	d := openTestDiskCache(t, dir, DiskCacheOptions{Refresh: time.Millisecond})
	if err := os.WriteFile(filepath.Join(dir, "cell-a.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	writeShard(t, dir, "cell-a.jsonl", storeEntry{Key: testKey("k2").String(), Response: "v2"})
	time.Sleep(5 * time.Millisecond)
	if text, _, ok := d.Get(testKey("k2"), true); !ok || text != "v2" {
		t.Fatalf("re-recorded shard not re-ingested: (%q, %v)", text, ok)
	}
}

// TestShardedCacheEvictionAndBytes: the sharded LRU enforces (at least) its
// total capacity, counts evictions, and keeps the resident-bytes gauge
// consistent with what get() can still see.
func TestShardedCacheEvictionAndBytes(t *testing.T) {
	var evictions obs.Counter
	var bytes obs.Gauge
	c := newShardedCache(4, &evictions, &bytes) // 4 single-entry shards
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	keys := make([]digest, len(names))
	for i, name := range names {
		keys[i] = testKey(name)
		c.put(keys[i], "text-"+name)
	}
	if n := residentEntries(c); n > 4 {
		t.Fatalf("len() = %d, want ≤ 4", n)
	}
	hits := 0
	for i, k := range keys {
		if text, ok := c.get(k); ok {
			if text != "text-"+names[i] {
				t.Fatalf("get(%s) = %q", names[i], text)
			}
			hits++
		}
	}
	if hits != residentEntries(c) {
		t.Fatalf("resident entries %d but %d retrievable", residentEntries(c), hits)
	}
	// Refreshing an existing key must not evict.
	before := residentEntries(c)
	for i, k := range keys {
		if _, ok := c.get(k); ok {
			c.put(k, "updated-"+names[i])
		}
	}
	if residentEntries(c) != before {
		t.Fatalf("refresh changed len: %d -> %d", before, residentEntries(c))
	}
	// The fmcache_bytes contributor holds the resident key+text bytes, a
	// key counting its 16 binary bytes, through inserts, refreshes and
	// evictions; every insert past a full shard counted one eviction.
	var want int64
	for i, k := range keys {
		if text, ok := c.get(k); ok {
			if text != "updated-"+names[i] {
				t.Fatalf("get(%s) = %q after refresh", names[i], text)
			}
			want += int64(len(k) + len(text))
		}
	}
	if got := bytes.Value(); got != want {
		t.Fatalf("bytes gauge = %d, resident key+text bytes = %d", got, want)
	}
	if got := evictions.Value(); got != int64(len(keys)-before) {
		t.Fatalf("evictions = %d, want %d", got, len(keys)-before)
	}
	if newShardedCache(0, nil, nil) != nil {
		t.Fatal("capacity 0 should yield nil cache")
	}
}

// residentEntries counts the entries resident across a sharded cache's
// shards.
func residentEntries(c *shardedCache) int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.lru.items)
		sh.mu.Unlock()
	}
	return n
}

// TestGatewayDiskTierPromotion: a disk-tier hit is promoted into the
// in-process LRU, so the second request for the same prompt is a mem hit —
// and no request ever reaches upstream.
func TestGatewayDiskTierPromotion(t *testing.T) {
	dir := t.TempDir()
	prompt := "cached prompt"
	key := contentDigest("", "counting", prompt)
	writeShard(t, dir, "cell-a.jsonl", storeEntry{Key: key.String(), Response: "from-disk"})
	d := openTestDiskCache(t, dir, DiskCacheOptions{})
	model := &countingModel{}
	g := New(model, Options{CacheSize: 64, Cacheable: allCacheable, Disk: d})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		text, err := g.Complete(ctx, prompt)
		if err != nil || text != "from-disk" {
			t.Fatalf("complete %d = (%q, %v)", i, text, err)
		}
	}
	if got := atomic.LoadInt64(&model.calls); got != 0 {
		t.Fatalf("upstream calls = %d, want 0", got)
	}
	m := g.Metrics()
	if m.DiskHits != 1 || m.CacheHits != 1 {
		t.Fatalf("metrics = %+v, want DiskHits=1 CacheHits=1", m)
	}
	if !strings.Contains(m.String(), "disk_hits=1") {
		t.Fatalf("Metrics.String() missing disk_hits: %s", m.String())
	}
	if m.Saved() != 2 {
		t.Fatalf("Saved() = %d, want 2", m.Saved())
	}
}

// TestGatewayPromoteOnlyCache: with CacheSize 0 but a disk tier attached, the
// gateway builds a promote-only LRU — disk hits are cached (they carry replay
// semantics), upstream results are NOT (caching them would change results
// relative to the same run without -fm-cache-dir).
func TestGatewayPromoteOnlyCache(t *testing.T) {
	dir := t.TempDir()
	diskPrompt := "disk prompt"
	writeShard(t, dir, "cell-a.jsonl", storeEntry{Key: contentKey("", "counting", diskPrompt), Response: "from-disk"})
	d := openTestDiskCache(t, dir, DiskCacheOptions{})
	model := &countingModel{}
	g := New(model, Options{Cacheable: allCacheable, Disk: d})
	ctx := context.Background()
	// Upstream-served prompt: both requests must pay upstream (no LRU
	// population, and the self-learned disk entry is never re-served to us).
	for i := 0; i < 2; i++ {
		if _, err := g.Complete(ctx, "upstream prompt"); err != nil {
			t.Fatalf("upstream complete %d: %v", i, err)
		}
	}
	if got := atomic.LoadInt64(&model.calls); got != 2 {
		t.Fatalf("upstream calls = %d, want 2 (promote-only must not cache upstream results)", got)
	}
	// Disk-served prompt: promoted, second request is a mem hit.
	for i := 0; i < 2; i++ {
		if text, err := g.Complete(ctx, diskPrompt); err != nil || text != "from-disk" {
			t.Fatalf("disk complete %d = (%q, %v)", i, text, err)
		}
	}
	if got := atomic.LoadInt64(&model.calls); got != 2 {
		t.Fatalf("upstream calls = %d after disk-served prompt, want 2", got)
	}
	m := g.Metrics()
	if m.DiskHits != 1 || m.CacheHits != 1 {
		t.Fatalf("metrics = %+v, want DiskHits=1 CacheHits=1", m)
	}
}

// TestGatewayDiskHitRecordThrough: when a recording store is attached, a
// disk-tier hit is written through into this run's own shard, so the shard
// stays self-contained for replay.
func TestGatewayDiskHitRecordThrough(t *testing.T) {
	dir := t.TempDir()
	prompt := "peer-paid prompt"
	key := contentDigest("", "counting", prompt)
	writeShard(t, dir, "cell-peer.jsonl", storeEntry{Key: key.String(), Response: "peer-response"})
	d := openTestDiskCache(t, dir, DiskCacheOptions{})
	recPath := filepath.Join(t.TempDir(), "own.jsonl")
	rec, err := NewRecordStore(recPath)
	if err != nil {
		t.Fatal(err)
	}
	model := &countingModel{}
	g := New(model, Options{CacheSize: 8, Cacheable: allCacheable, Store: rec, Disk: d})
	if text, err := g.Complete(context.Background(), prompt); err != nil || text != "peer-response" {
		t.Fatalf("complete = (%q, %v)", text, err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	replay, err := OpenReplayStore(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := storeLen(replay); n != 1 {
		t.Fatalf("recorded %d entries, want 1 (disk hit must be written through)", n)
	}
	if e, ok := replay.pop(key, true); !ok || e.response != "peer-response" {
		t.Fatalf("replay = (%q, %v)", e.response, ok)
	}
}

// TestGatewayDiskErrorServed: a recorded upstream error on the disk tier is
// surfaced as an error without calling upstream.
func TestGatewayDiskErrorServed(t *testing.T) {
	dir := t.TempDir()
	prompt := "failing prompt"
	writeShard(t, dir, "cell-a.jsonl", storeEntry{Key: contentKey("", "counting", prompt), Error: "upstream exploded"})
	d := openTestDiskCache(t, dir, DiskCacheOptions{})
	model := &countingModel{}
	g := New(model, Options{CacheSize: 8, Cacheable: allCacheable, Disk: d})
	_, err := g.Complete(context.Background(), prompt)
	if err == nil || !strings.Contains(err.Error(), "upstream exploded") {
		t.Fatalf("err = %v, want cached upstream error", err)
	}
	if got := atomic.LoadInt64(&model.calls); got != 0 {
		t.Fatalf("upstream calls = %d, want 0", got)
	}
}

package fmgate

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"smartfeat/internal/jsonio"
	"smartfeat/internal/lease"
	"smartfeat/internal/obs"
)

// CacheLivePrefix names the shard files a DiskCache appends unpersisted live
// completions to (live-<worker>.jsonl). grid.Compact's cache sweep treats
// only these as evictable: cell shards are replay artifacts, live shards are
// pure cache.
const CacheLivePrefix = "live-"

// DiskCacheOptions configures OpenDiskCache.
type DiskCacheOptions struct {
	// ConfigHash is this run's configuration fingerprint. Non-empty values
	// are checked against the directory's manifest — serving completions
	// recorded under different seeds/budgets would silently corrupt results
	// — and stamped into a fresh directory's manifest. Empty skips the check
	// (cross-tool callers that match configurations by other means).
	ConfigHash string
	// Worker names this process's live shard (live-<worker>.jsonl); empty
	// defaults to the PID. Distinct workers sharing one directory must use
	// distinct names so their append streams never interleave mid-line.
	Worker string
	// Live enables appending unpersisted completions (ones no record shard
	// captured) to the live shard so peer processes can serve them. Callers
	// already recording into cell shards leave this off.
	Live bool
	// Refresh throttles directory rescans on miss (default 250ms): a miss
	// older than this triggers one incremental re-read of grown shards.
	Refresh time.Duration
	// LockTTL is the staleness threshold of the lock file
	// (<dir>/manifest.json.lock) that serializes manifest writes across
	// processes: a lock older than this is presumed abandoned by a
	// crashed holder (0 = the lease package default).
	LockTTL time.Duration
}

// diskKey is the per-content-address queue of the disk tier. Entries
// ingested from shard files carry replay-grade semantics; entries this
// process learned from its own upstream calls are for peers only (see
// replayEntry.learned).
type diskKey struct {
	queue
	// src is the shard file the entries came from; multi flags a key fed by
	// more than one source. A multi-source union has no meaningful replay
	// order (two cells' sampling draws interleaved by file-name sort), so
	// such keys are served only when every entry is identical.
	src   string
	multi bool
}

// learnSrc marks queue entries this process learned from its own upstream
// calls (vs ingested from a shard file).
const learnSrc = "\x00self"

// DiskCache is the cross-process tier of the completion cache: a
// content-addressed read-through index over a directory of record-store
// shards (fm/*.jsonl). Completions a peer worker already paid for are served
// at zero cost with the record store's replay semantics — cacheable prompts
// stick at their last outcome, sampling prompts pop recorded draws in order
// and miss when exhausted — so a run served entirely from the disk tier is
// byte-identical to the recording run.
//
// The index is built lazily: an initial scan at open, then incremental
// re-reads (throttled by Refresh) pick up bytes peers have appended since.
// Appends are atomic whole-line writes, so a scan never sees a torn record —
// a trailing partial line is simply left unconsumed until the writer
// finishes it. Safe for concurrent use.
type DiskCache struct {
	dir  string
	opts DiskCacheOptions
	lock *lease.Mutex

	mu       sync.Mutex
	keys     map[digest]*diskKey
	files    map[string]int64 // consumed byte offset per shard file
	exclude  map[string]bool  // shard files never ingested (own writes)
	lastScan time.Time
	live     *os.File
	liveName string
	closed   bool

	bytesG obs.Gauge   // fmcache_bytes{tier="disk"}
	scans  obs.Counter // fmcache_disk_scans_total
}

// OpenDiskCache opens (creating if needed) a shard directory as the disk
// tier of the completion cache and performs the initial index scan.
func OpenDiskCache(dir string, opts DiskCacheOptions) (*DiskCache, error) {
	if opts.Refresh <= 0 {
		opts.Refresh = 250 * time.Millisecond
	}
	if opts.Worker == "" {
		opts.Worker = fmt.Sprintf("pid%d", os.Getpid())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fmgate: creating cache dir: %w", err)
	}
	d := &DiskCache{
		dir:     dir,
		opts:    opts,
		lock:    lease.NewMutex(filepath.Join(dir, "manifest.json.lock"), opts.LockTTL),
		keys:    make(map[digest]*diskKey),
		files:   make(map[string]int64),
		exclude: make(map[string]bool),
	}
	if err := d.ensureManifest(); err != nil {
		return nil, err
	}
	obs.Default.RegisterGauge("fmcache_bytes", fmcacheBytesHelp, &d.bytesG, "tier", "disk")
	obs.Default.RegisterCounter("fmcache_disk_scans_total", "Disk-tier index scans over the shard directory.", &d.scans)
	d.mu.Lock()
	d.scanLocked()
	// The initial scan ingests a previous incarnation's live shard once;
	// excluding it afterwards keeps our own appends from being re-ingested.
	d.liveName = CacheLivePrefix + sanitizeWorker(opts.Worker) + ".jsonl"
	d.exclude[d.liveName] = true
	d.mu.Unlock()
	return d, nil
}

// sanitizeWorker folds a worker name to a safe file-name fragment.
func sanitizeWorker(w string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, w)
}

// ensureManifest validates an existing shard-dir manifest against the
// configured hash, or stamps a fresh directory with one. A fresh manifest
// gets an empty (non-nil) cell list: `"cells": []` is what keeps the
// directory recognizable as a shard dir — and unmistakable for a grid run
// dir — by grid.Compact.
func (d *DiskCache) ensureManifest() error {
	validate := func(m StoreSetManifest) error {
		if m.Version != storeSetVersion {
			return fmt.Errorf("fmgate: cache dir %s manifest has version %d, want %d", d.dir, m.Version, storeSetVersion)
		}
		if d.opts.ConfigHash != "" && m.ConfigHash != "" && m.ConfigHash != d.opts.ConfigHash {
			return fmt.Errorf("%w: cache dir %s holds completions recorded under config %s, this run is %s — point -fm-cache-dir at a matching recording or a fresh directory",
				ErrStoreSetConfigMismatch, d.dir, m.ConfigHash, d.opts.ConfigHash)
		}
		return nil
	}
	m, err := ReadStoreSetManifest(d.dir)
	if err == nil {
		return validate(m)
	}
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := d.lock.Lock(); err != nil {
		return err
	}
	defer d.lock.Unlock()
	// A peer may have stamped the manifest while we waited for the lock.
	if m, err := ReadStoreSetManifest(d.dir); err == nil {
		return validate(m)
	}
	fresh := StoreSetManifest{
		Version:    storeSetVersion,
		ConfigHash: d.opts.ConfigHash,
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		Cells:      []string{},
	}
	return jsonio.WriteAtomic(filepath.Join(d.dir, storeSetManifestName), fresh)
}

// scanLocked re-reads every non-excluded *.jsonl shard from its consumed
// offset, ingesting newly-appended complete lines into the index.
func (d *DiskCache) scanLocked() {
	d.lastScan = time.Now()
	d.scans.Inc()
	des, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	var names []string
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".jsonl") || d.exclude[name] {
			continue
		}
		names = append(names, name)
	}
	// File-name order: deterministic ingestion order for multi-file keys
	// (which are refused unless uniform anyway, but determinism is free).
	sort.Strings(names)
	for _, name := range names {
		d.ingestLocked(name)
	}
}

// ingestLocked reads one shard file's unconsumed suffix into the index. A
// trailing line without its newline is a peer mid-append: left unconsumed. A
// file shorter than its consumed offset was truncated (a cell re-recorded by
// a resumed run); it is re-read from the start — the re-recording is made
// under the same config hash, so duplicated entries carry identical content.
// Lines that do not parse, carry no hex content address or run past
// maxRecordBytes are skipped.
func (d *DiskCache) ingestLocked(name string) {
	path := filepath.Join(d.dir, name)
	info, err := os.Stat(path)
	if err != nil {
		return
	}
	off := d.files[name]
	if info.Size() < off {
		d.bytesG.Add(-off)
		off = 0
	}
	if info.Size() == off {
		return
	}
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return
	}
	r := bufio.NewReaderSize(f, maxRecordBytes)
	consumed := off
	for {
		raw, readErr := r.ReadSlice('\n')
		if readErr == bufio.ErrBufferFull {
			rest, ok := skipLine(r)
			if !ok {
				break // an over-cap line a peer is still appending
			}
			consumed += int64(len(raw)) + rest
			continue
		}
		if len(raw) > 0 && raw[len(raw)-1] == '\n' {
			consumed += int64(len(raw))
			data := bytes.TrimRight(raw, "\r\n")
			if len(data) > 0 {
				var e storeEntry
				if err := json.Unmarshal(data, &e); err == nil {
					if key, ok := parseDigest(e.Key); ok {
						d.addEntryLocked(key, name, replayEntry{response: e.Response, err: e.Error})
					}
				}
			}
		}
		if readErr != nil {
			break
		}
	}
	d.bytesG.Add(consumed - d.files[name])
	d.files[name] = consumed
}

// skipLine discards the rest of an over-cap line through its newline and
// returns how many bytes that was; ok is false when the input ends first.
func skipLine(r *bufio.Reader) (n int64, ok bool) {
	for {
		raw, err := r.ReadSlice('\n')
		n += int64(len(raw))
		if err == nil {
			return n, true
		}
		if err != bufio.ErrBufferFull {
			return n, false
		}
	}
}

func (d *DiskCache) addEntryLocked(key digest, src string, e replayEntry) {
	k := d.keys[key]
	if k == nil {
		k = &diskKey{src: src}
		d.keys[key] = k
	} else if k.src != src {
		k.multi = true
	}
	k.entries = append(k.entries, e)
}

// Get serves the next cached outcome for a content address, re-scanning the
// directory (throttled) on miss so a peer's freshly-appended completions
// become visible. sticky follows queue.pop: cacheable prompts stick at their
// last outcome when the queue is exhausted; sampling prompts miss.
// errMsg is a recorded upstream failure, served faithfully so error-threshold
// logic downstream sees the sequence the paying run saw.
func (d *DiskCache) Get(key digest, sticky bool) (text string, errMsg string, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return "", "", false
	}
	if text, errMsg, ok = d.popLocked(key, sticky); ok {
		return text, errMsg, true
	}
	if time.Since(d.lastScan) < d.opts.Refresh {
		return "", "", false
	}
	d.scanLocked()
	return d.popLocked(key, sticky)
}

func (d *DiskCache) popLocked(key digest, sticky bool) (string, string, bool) {
	k := d.keys[key]
	if k == nil {
		return "", "", false
	}
	if k.multi {
		// Entries from several shard files: the union's order is file-name
		// sort, not anything a replaying caller recorded. Only a key whose
		// every recorded outcome is identical can be served safely (a
		// deterministic cacheable completion recorded by several cells);
		// anything else must miss to upstream.
		if !sticky || !uniformEntries(k.entries) {
			return "", "", false
		}
		e := k.entries[0]
		return e.response, e.err, true
	}
	e, ok := k.pop(sticky)
	return e.response, e.err, ok
}

func uniformEntries(es []replayEntry) bool {
	for _, e := range es[1:] {
		if e.response != es[0].response || e.err != es[0].err {
			return false
		}
	}
	return true
}

// Learn feeds a completion this process just paid upstream for into the
// index (cursor pre-advanced: the entry is for peers and later incarnations,
// not for re-serving to ourselves). When the completion was not persisted by
// a record store and Live is enabled, it is also appended to this worker's
// live shard — one atomic whole-line write — so peer processes can serve it.
// Best-effort: a failed live append degrades sharing, never the completion.
func (d *DiskCache) Learn(key digest, prompt, response, errMsg string, persisted bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.addEntryLocked(key, learnSrc, replayEntry{response: response, err: errMsg, learned: true})
	k := d.keys[key]
	k.next = len(k.entries)
	if persisted || !d.opts.Live {
		return
	}
	if d.live == nil {
		f, err := os.OpenFile(filepath.Join(d.dir, d.liveName), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return
		}
		d.live = f
	}
	b, err := json.Marshal(storeEntry{Key: key.String(), Prompt: firstLine(prompt), Response: response, Error: errMsg})
	if err != nil {
		return
	}
	line := append(b, '\n')
	if _, err := d.live.Write(line); err == nil {
		d.bytesG.Add(int64(len(line)))
	}
}

// Exclude marks a shard file this process is about to (re-)record so the
// index never ingests our own in-progress writes. Call before the record
// store truncates the file. Entries already ingested from a previous
// incarnation of the file stay: they were recorded under the same config
// hash, so their content matches what the re-recording will write.
func (d *DiskCache) Exclude(path string) {
	if filepath.Clean(filepath.Dir(path)) != filepath.Clean(d.dir) {
		return
	}
	d.mu.Lock()
	d.exclude[filepath.Base(path)] = true
	d.mu.Unlock()
}

// Close closes the live shard.
func (d *DiskCache) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	if d.live == nil {
		return nil
	}
	err := d.live.Close()
	d.live = nil
	return err
}

package fmgate

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// promptLine builds the cacheable prompt shape the gate recognises.
func promptLine(task, body string) string {
	return "Task: " + task + "\n" + body
}

// recordSet records a few completions into two cells and returns the dir.
func recordSet(t *testing.T, hash string) string {
	t.Helper()
	dir := t.TempDir()
	set, err := NewRecordStoreSet(dir, StoreSetManifest{ConfigHash: hash, Seed: 7, Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, cell := range []string{"Tennis__SMARTFEAT", "Diabetes__SMARTFEAT"} {
		shard, err := set.Shard(cell)
		if err != nil {
			t.Fatal(err)
		}
		model := &countingModel{}
		g := New(model, Options{Store: shard})
		for i := 0; i < 3; i++ {
			p := promptLine("generate-function", fmt.Sprintf("%s call %d", cell, i))
			if _, err := g.Complete(ctx, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestStoreSetRecordReplayRoundTrip(t *testing.T) {
	dir := recordSet(t, "cfg-1")

	set, err := OpenReplayStoreSet(dir, "cfg-1")
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if got := set.Cells(); len(got) != 2 || got[0] != "Diabetes__SMARTFEAT" || got[1] != "Tennis__SMARTFEAT" {
		t.Fatalf("manifest cells = %v", got)
	}
	ctx := context.Background()
	for _, cell := range []string{"Tennis__SMARTFEAT", "Diabetes__SMARTFEAT"} {
		shard, err := set.Shard(cell)
		if err != nil {
			t.Fatal(err)
		}
		model := &countingModel{}
		g := New(model, Options{Store: shard})
		for i := 0; i < 3; i++ {
			p := promptLine("generate-function", fmt.Sprintf("%s call %d", cell, i))
			got, err := g.Complete(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if want := "resp:" + p; got != want {
				t.Fatalf("replayed %q, want %q", got, want)
			}
		}
		if model.calls != 0 {
			t.Fatalf("replay reached the upstream model %d times", model.calls)
		}
		if m := g.Metrics(); m.Replayed != 3 || m.UpstreamCalls != 0 {
			t.Fatalf("metrics = %+v", m)
		}
	}
}

// TestStoreSetShardIsolation pins that a prompt recorded in one cell's shard
// is not served from another cell's: replay through the wrong shard misses
// loudly instead of borrowing a neighbouring cell's traffic.
func TestStoreSetShardIsolation(t *testing.T) {
	dir := recordSet(t, "cfg-1")
	set, err := OpenReplayStoreSet(dir, "cfg-1")
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	shard, err := set.Shard("Diabetes__SMARTFEAT")
	if err != nil {
		t.Fatal(err)
	}
	g := New(&countingModel{}, Options{Store: shard})
	// A Tennis-cell prompt must miss in the Diabetes shard.
	_, err = g.Complete(context.Background(), promptLine("generate-function", "Tennis__SMARTFEAT call 0"))
	if err == nil || !strings.Contains(err.Error(), "replay miss") {
		t.Fatalf("want replay miss, got %v", err)
	}
}

// TestStoreSetSingleCellReplay pins the headline behaviour: a full-grid
// recording replays a single selected cell without touching (or needing) the
// other shards.
func TestStoreSetSingleCellReplay(t *testing.T) {
	dir := recordSet(t, "cfg-1")
	// Delete the other shard to prove it is not consulted.
	if err := os.Remove(filepath.Join(dir, "Diabetes__SMARTFEAT.jsonl")); err != nil {
		t.Fatal(err)
	}
	set, err := OpenReplayStoreSet(dir, "cfg-1")
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	shard, err := set.Shard("Tennis__SMARTFEAT")
	if err != nil {
		t.Fatal(err)
	}
	g := New(&countingModel{}, Options{Store: shard})
	p := promptLine("generate-function", "Tennis__SMARTFEAT call 0")
	if got, err := g.Complete(context.Background(), p); err != nil || got != "resp:"+p {
		t.Fatalf("single-cell replay: %q, %v", got, err)
	}
}

func TestStoreSetConfigHashMismatch(t *testing.T) {
	dir := recordSet(t, "cfg-1")
	if _, err := OpenReplayStoreSet(dir, "cfg-2"); !errors.Is(err, ErrStoreSetConfigMismatch) {
		t.Fatalf("want ErrStoreSetConfigMismatch, got %v", err)
	}
	// Recording into the same dir under a different config is refused too.
	if _, err := NewRecordStoreSet(dir, StoreSetManifest{ConfigHash: "cfg-2"}); !errors.Is(err, ErrStoreSetConfigMismatch) {
		t.Fatalf("want ErrStoreSetConfigMismatch on re-record, got %v", err)
	}
	// The matching hash (or an explicit skip) opens fine.
	if _, err := OpenReplayStoreSet(dir, "cfg-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReplayStoreSet(dir, ""); err != nil {
		t.Fatal(err)
	}
}

func TestStoreSetMissingCell(t *testing.T) {
	dir := recordSet(t, "cfg-1")
	set, err := OpenReplayStoreSet(dir, "cfg-1")
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if _, err := set.Shard("Bank__CAAFE"); err == nil || !strings.Contains(err.Error(), "no shard for cell") {
		t.Fatalf("want missing-shard error, got %v", err)
	}
	if _, err := set.Shard("../escape"); err == nil {
		t.Fatal("path-escaping cell key accepted")
	}
}

// TestStoreSetResumedRecordingKeepsCells pins the record-resume path: a
// second recording run over the same directory (same config) keeps the
// earlier run's cell coverage while re-recording only the cells it executes.
func TestStoreSetResumedRecordingKeepsCells(t *testing.T) {
	dir := recordSet(t, "cfg-1")
	set, err := NewRecordStoreSet(dir, StoreSetManifest{ConfigHash: "cfg-1", Seed: 7, Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	shard, err := set.Shard("Bank__CAAFE")
	if err != nil {
		t.Fatal(err)
	}
	g := New(&countingModel{}, Options{Store: shard})
	if _, err := g.Complete(context.Background(), promptLine("generate-function", "bank")); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	replay, err := OpenReplayStoreSet(dir, "cfg-1")
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	want := []string{"Bank__CAAFE", "Diabetes__SMARTFEAT", "Tennis__SMARTFEAT"}
	got := replay.Cells()
	if len(got) != len(want) {
		t.Fatalf("cells = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cells = %v, want %v", got, want)
		}
	}
	// The untouched first-run shard still replays.
	if _, err := replay.Shard("Tennis__SMARTFEAT"); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSetConcurrentRecorderManifestMerge pins the multi-worker
// recording contract: two open StoreSets over one directory — as two
// -worker processes recording their claimed cells would be — union their
// cell lists through the on-disk manifest instead of clobbering each other.
func TestStoreSetConcurrentRecorderManifestMerge(t *testing.T) {
	dir := t.TempDir()
	a, err := NewRecordStoreSet(dir, StoreSetManifest{ConfigHash: "cfg-1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRecordStoreSet(dir, StoreSetManifest{ConfigHash: "cfg-1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Shard("Bank__SMARTFEAT"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Shard("Tennis__CAAFE"); err != nil {
		t.Fatal(err)
	}
	// a's next manifest write must not erase b's cell, nor vice versa.
	if _, err := a.Shard("Bank__CAAFE"); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	replay, err := OpenReplayStoreSet(dir, "cfg-1")
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	want := []string{"Bank__CAAFE", "Bank__SMARTFEAT", "Tennis__CAAFE"}
	got := replay.Cells()
	if len(got) != len(want) {
		t.Fatalf("cells = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cells = %v, want %v", got, want)
		}
	}
}

// TestOpenReplayStoreTruncatedTrailingRecord pins the crash-detection fix: a
// recording whose final line was cut mid-write (no trailing newline, invalid
// JSON) is reported as truncated instead of silently accepted or dropped.
func TestOpenReplayStoreTruncatedTrailingRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.jsonl")
	k1, k2 := testKey("k1").String(), testKey("k2").String()
	whole := `{"key":"` + k1 + `","response":"a"}` + "\n"
	partial := `{"key":"` + k2 + `","resp` // crashed mid-write
	if err := os.WriteFile(path, []byte(whole+partial), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenReplayStore(path)
	if err == nil || !strings.Contains(err.Error(), "truncated trailing record") {
		t.Fatalf("want truncated-record error, got %v", err)
	}

	// A final line that is complete JSON but merely missing its newline is
	// complete data — accepted.
	if err := os.WriteFile(path, []byte(whole+`{"key":"`+k2+`","response":"b"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenReplayStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := storeLen(s); n != 2 {
		t.Fatalf("storeLen = %d, want 2", n)
	}

	// A malformed line in the middle stays a plain parse error.
	if err := os.WriteFile(path, []byte(`{"bad`+"\n"+whole), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenReplayStore(path)
	if err == nil || strings.Contains(err.Error(), "truncated trailing record") {
		t.Fatalf("mid-file corruption should not be reported as truncation: %v", err)
	}
}

// TestGatewayScopeSeparatesKeys pins that scoped gateways sharing one store
// keep disjoint replay queues even for identical prompts.
func TestGatewayScopeSeparatesKeys(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.jsonl")
	store, err := NewRecordStore(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := promptLine("sample-binary", "same prompt") // non-cacheable: ordered queue semantics
	gA := New(&countingModel{}, Options{Store: store, Scope: "caafe/LR"})
	gB := New(&countingModel{}, Options{Store: store, Scope: "caafe/NB"})
	if contentKey("caafe/LR", gA.Name(), p) == contentKey("caafe/NB", gB.Name(), p) {
		t.Fatal("scoped keys collide")
	}
	// Record interleaved A,B,A — then replay B first; each scope must still
	// get its own first recorded response.
	for _, g := range []*Gateway{gA, gB, gA} {
		if _, err := g.Complete(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	rstore, err := OpenReplayStore(path)
	if err != nil {
		t.Fatal(err)
	}
	rB := New(&countingModel{}, Options{Store: rstore, Scope: "caafe/NB"})
	rA := New(&countingModel{}, Options{Store: rstore, Scope: "caafe/LR"})
	if got, err := rB.Complete(ctx, p); err != nil || got != "resp:"+p {
		t.Fatalf("scope B replay: %q, %v", got, err)
	}
	for i := 0; i < 2; i++ {
		if got, err := rA.Complete(ctx, p); err != nil || got != "resp:"+p {
			t.Fatalf("scope A replay %d: %q, %v", i, got, err)
		}
	}
	// Scope B recorded exactly one draw; a second request must miss (the
	// non-sticky sampling semantics), not borrow scope A's queue.
	if _, err := rB.Complete(ctx, p); err == nil {
		t.Fatal("exhausted scoped queue should miss")
	}
}

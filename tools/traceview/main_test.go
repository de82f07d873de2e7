package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeTrace(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const traceA = `{"trace":"v1","program":"smartfeatd","started":"2026-08-07T10:00:00Z"}
{"id":2,"parent":1,"name":"child","ts_us":100,"dur_us":50}
{"id":1,"parent":0,"name":"rootA","ts_us":0,"dur_us":500}
`

const traceB = `{"trace":"v1","program":"loadsim","started":"2026-08-07T10:00:02Z"}
{"id":1,"parent":0,"name":"rootB","ts_us":10,"dur_us":20}
`

func TestConvertSingleFile(t *testing.T) {
	out, err := convert(strings.NewReader(traceA), "a.jsonl")
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(out.TraceEvents))
	}
	for _, e := range out.TraceEvents {
		if e.Pid != 1 || e.Tid != 1 {
			t.Errorf("event %q pid/tid = %d/%d, want 1/1 (both spans share root 1)", e.Name, e.Pid, e.Tid)
		}
	}
}

func TestMergeAlignsEpochsAndNamespacesPids(t *testing.T) {
	dir := t.TempDir()
	a := writeTrace(t, dir, "a.jsonl", traceA)
	b := writeTrace(t, dir, "b.jsonl", traceB)
	out, err := mergeFiles([]string{a, b})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if len(out.TraceEvents) != 3 {
		t.Fatalf("events = %d, want 3", len(out.TraceEvents))
	}
	byName := make(map[string]event)
	for _, e := range out.TraceEvents {
		byName[e.Name] = e
	}
	// File A started first: its events keep their own timestamps on pid 1.
	if e := byName["rootA"]; e.Pid != 1 || e.Ts != 0 {
		t.Errorf("rootA pid/ts = %d/%d, want 1/0", e.Pid, e.Ts)
	}
	// File B started 2s later: pid 2, timestamps shifted +2s onto A's epoch.
	if e := byName["rootB"]; e.Pid != 2 || e.Ts != 2_000_000+10 {
		t.Errorf("rootB pid/ts = %d/%d, want 2/%d", e.Pid, e.Ts, 2_000_000+10)
	}
	if got := out.OtherData["started"]; got != "2026-08-07T10:00:00Z" {
		t.Errorf("merged epoch = %v, want the earliest header's", got)
	}
	if got := out.OtherData["files"]; got != 2 {
		t.Errorf("files = %v, want 2", got)
	}
}

// TestMergeDuplicateIDsAcrossFilesAreFine pins the namespacing contract:
// both inputs use span id 1, which is only a conflict within one file.
func TestMergeDuplicateIDsAcrossFilesAreFine(t *testing.T) {
	dir := t.TempDir()
	a := writeTrace(t, dir, "a.jsonl", traceA)
	b := writeTrace(t, dir, "b.jsonl", traceB)
	if _, err := mergeFiles([]string{a, b}); err != nil {
		t.Fatalf("merge with per-file id 1 in both inputs: %v", err)
	}
}

func TestMergeErrorsKeepFileAndLine(t *testing.T) {
	dir := t.TempDir()
	a := writeTrace(t, dir, "a.jsonl", traceA)
	bad := writeTrace(t, dir, "bad.jsonl",
		"{\"trace\":\"v1\",\"program\":\"x\",\"started\":\"2026-08-07T10:00:00Z\"}\n"+
			"{\"id\":1,\"parent\":0,\"name\":\"ok\",\"ts_us\":0,\"dur_us\":1}\n"+
			"{\"id\":1,\"parent\":0,\"name\":\"dup\",\"ts_us\":5,\"dur_us\":1}\n")
	_, err := mergeFiles([]string{a, bad})
	if err == nil {
		t.Fatal("merge accepted a duplicate span id within one file")
	}
	if !strings.Contains(err.Error(), "bad.jsonl:3") {
		t.Errorf("error %q does not name the offending file and line bad.jsonl:3", err)
	}
}

func TestMergeRejectsUnparseableStarted(t *testing.T) {
	dir := t.TempDir()
	bad := writeTrace(t, dir, "nostamp.jsonl",
		"{\"trace\":\"v1\",\"program\":\"x\",\"started\":\"yesterday\"}\n"+
			"{\"id\":1,\"parent\":0,\"name\":\"ok\",\"ts_us\":0,\"dur_us\":1}\n")
	_, err := mergeFiles([]string{bad})
	if err == nil || !strings.Contains(err.Error(), "nostamp.jsonl:1") {
		t.Fatalf("err = %v, want a line-1 error about the unparseable started stamp", err)
	}
}

// Span lines whose parents loop: the root walk in buildEvents would never
// end on them.
const (
	hdrLine    = "{\"trace\":\"v1\",\"program\":\"x\",\"started\":\"2026-08-07T10:00:00Z\"}\n"
	selfParent = hdrLine + "{\"id\":1,\"parent\":1,\"name\":\"a\",\"ts_us\":0,\"dur_us\":1}\n"
	twoCycle   = hdrLine + "{\"id\":3,\"parent\":0,\"name\":\"ok\",\"ts_us\":0,\"dur_us\":1}\n" +
		"{\"id\":1,\"parent\":2,\"name\":\"a\",\"ts_us\":0,\"dur_us\":1}\n" +
		"{\"id\":2,\"parent\":1,\"name\":\"b\",\"ts_us\":0,\"dur_us\":1}\n"
	dangling = hdrLine + "{\"id\":2,\"parent\":7,\"name\":\"orphan\",\"ts_us\":0,\"dur_us\":1}\n"
)

func TestParseRejectsParentCycles(t *testing.T) {
	for _, tc := range []struct {
		name, trace, want string
	}{
		{"self", selfParent, "x.jsonl:2: span 1 is its own ancestor"},
		{"two", twoCycle, "x.jsonl:3: span 1 is its own ancestor"},
	} {
		_, _, err := parse(strings.NewReader(tc.trace), "x.jsonl")
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestParseAcceptsDanglingParent pins what an interrupted run leaves: a
// span whose parent never ended is kept, on the lane of its last recorded
// ancestor.
func TestParseAcceptsDanglingParent(t *testing.T) {
	out, err := convert(strings.NewReader(dangling), "x.jsonl")
	if err != nil {
		t.Fatalf("dangling parent rejected: %v", err)
	}
	if len(out.TraceEvents) != 1 || out.TraceEvents[0].Tid != 7 {
		t.Fatalf("events = %+v, want one on track 7", out.TraceEvents)
	}
}

// FuzzParse feeds arbitrary text to the trace validator. parse and
// buildEvents must return, and a trace parse accepts must yield one event
// per span.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{traceA, traceB, selfParent, twoCycle, dangling, hdrLine, ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		var (
			spans  []span
			events []event
			err    error
		)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, spans, err = parse(strings.NewReader(in), "fuzz"); err == nil {
				events = buildEvents(spans, 1, 0)
			}
		}()
		timer := time.NewTimer(5 * time.Second)
		defer timer.Stop()
		select {
		case <-done:
		case <-timer.C:
			t.Fatalf("parse and buildEvents still running after 5s on %q", in)
		}
		if err == nil && len(events) != len(spans) {
			t.Fatalf("%d spans gave %d events", len(spans), len(events))
		}
	})
}

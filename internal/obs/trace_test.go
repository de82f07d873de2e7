package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func readTrace(t *testing.T, buf *bytes.Buffer) (traceHeader, []spanRecord) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	if !sc.Scan() {
		t.Fatal("empty trace")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("bad header: %v", err)
	}
	var recs []spanRecord
	for sc.Scan() {
		var rec spanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	return hdr, recs
}

// TestSpanNesting checks parent links, sequential IDs, attribute capture,
// and count bubbling through a cell → fm.call shaped hierarchy.
func TestSpanNesting(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, "test")
	ctx := WithTracer(context.Background(), tr)

	cctx, cell := StartSpan(ctx, "cell", String("dataset", "Diabetes"))
	for i := 0; i < 2; i++ {
		_, call := StartSpan(cctx, "fm.call")
		call.SetAttr("outcome", "cache")
		call.End()
	}
	counts := cell.Counts()
	cell.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if counts["fm.call"] != 2 {
		t.Errorf("cell counts = %v, want fm.call:2", counts)
	}
	hdr, recs := readTrace(t, &buf)
	if hdr.Trace != "v1" || hdr.Program != "test" {
		t.Errorf("header = %+v", hdr)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d span records, want 3", len(recs))
	}
	// Children end first; the cell record is last.
	cellRec := recs[2]
	if cellRec.Name != "cell" || cellRec.Attrs["dataset"] != "Diabetes" {
		t.Errorf("cell record = %+v", cellRec)
	}
	if cellRec.Counts["fm.call"] != 2 {
		t.Errorf("cell record counts = %v", cellRec.Counts)
	}
	for _, rec := range recs[:2] {
		if rec.Name != "fm.call" || rec.Parent != cellRec.ID {
			t.Errorf("child record = %+v, want parent %d", rec, cellRec.ID)
		}
		if rec.Attrs["outcome"] != "cache" {
			t.Errorf("child attrs = %v", rec.Attrs)
		}
	}
	// IDs come from a per-tracer sequence starting at 1.
	seen := map[int64]bool{}
	for _, rec := range recs {
		if rec.ID < 1 || rec.ID > 3 || seen[rec.ID] {
			t.Errorf("span IDs not a 1..3 sequence: %+v", recs)
		}
		seen[rec.ID] = true
	}
}

// TestDisabledTracerNoop checks the nil-span API surface is safe and that
// StartSpan without a tracer returns the context unchanged.
func TestDisabledTracerNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "x", String("k", "v"))
	if s != nil {
		t.Fatal("expected nil span without tracer")
	}
	if ctx2 != ctx {
		t.Fatal("expected unchanged context without tracer")
	}
	s.SetAttr("a", "b")
	if s.Counts() != nil {
		t.Error("nil span Counts should be nil")
	}
	s.End()
	s.End()
	var tr *Tracer
	if err := tr.Close(); err != nil {
		t.Errorf("nil tracer Close = %v", err)
	}
}

// TestDisabledSpanZeroAlloc pins the tentpole guarantee: instrumentation
// costs zero allocations when no tracer is installed, including call sites
// that pass attributes.
func TestDisabledSpanZeroAlloc(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		_, s := StartSpan(ctx, "cell")
		s.End()
	}); n != 0 {
		t.Errorf("disabled StartSpan allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		_, s := StartSpan(ctx, "cell", String("dataset", "d"), Int("fold", 3))
		s.SetAttr("status", "ok")
		s.End()
	}); n != 0 {
		t.Errorf("disabled StartSpan with attrs allocates %v/op, want 0", n)
	}
}

// TestTracerDeterministicIDs runs the same span program twice and checks
// the traces are structurally identical once timestamps are stripped.
func TestTracerDeterministicIDs(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		tr := NewTracer(&buf, "det")
		ctx := WithTracer(context.Background(), tr)
		for i := 0; i < 3; i++ {
			cctx, cell := StartSpan(ctx, "cell", Int("i", i))
			_, call := StartSpan(cctx, "fm.call")
			call.End()
			cell.End()
		}
		tr.Close()
		_, recs := readTrace(t, &buf)
		var sb strings.Builder
		for _, r := range recs {
			r.TsUS, r.DurUS = 0, 0
			b, _ := json.Marshal(r)
			sb.Write(b)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("structural trace differs between identical runs:\n%s\nvs\n%s", a, b)
	}
}

// TestSpanDoubleEndWritesOnce checks End is idempotent.
func TestSpanDoubleEndWritesOnce(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, "dd")
	ctx := WithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, "once")
	s.End()
	s.End()
	tr.Close()
	_, recs := readTrace(t, &buf)
	if len(recs) != 1 {
		t.Errorf("got %d records, want 1", len(recs))
	}
}

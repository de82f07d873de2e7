package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute. Build them with String/Int/Bool.
type Attr struct {
	Key   string
	Value string
}

// String makes a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int makes an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: itoa(v)} }

// Bool makes a boolean attribute.
func Bool(k string, v bool) Attr {
	if v {
		return Attr{Key: k, Value: "true"}
	}
	return Attr{Key: k, Value: "false"}
}

// itoa avoids strconv in the hot path signature; small and allocation-free
// for the values spans carry (iteration numbers, counts).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// spanRecord is one line of trace.jsonl. Timestamps are microseconds since
// the tracer's epoch (wall time is recorded once in the header line), so a
// trace never leaks absolute time into fingerprinted artifacts.
type spanRecord struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent,omitempty"`
	Name   string            `json:"name"`
	TsUS   int64             `json:"ts_us"`
	DurUS  int64             `json:"dur_us"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	Counts map[string]int64  `json:"counts,omitempty"`
}

// traceHeader is the first line of trace.jsonl.
type traceHeader struct {
	Trace   string `json:"trace"` // format version
	Program string `json:"program,omitempty"`
	Started string `json:"started,omitempty"` // RFC3339 wall clock of the epoch
}

// Tracer appends completed spans to a JSONL stream. Span IDs come from a
// per-tracer sequence and timestamps are epoch-relative, so two replayed
// runs produce structurally identical traces. A nil *Tracer is a valid
// disabled tracer.
type Tracer struct {
	mu    sync.Mutex
	w     *bufio.Writer
	c     io.Closer
	err   error
	epoch time.Time
	seq   atomic.Int64
}

// NewTracer starts a tracer writing to w, emitting the header line
// immediately. program names the producing binary in the header.
func NewTracer(w io.Writer, program string) *Tracer {
	t := &Tracer{w: bufio.NewWriter(w), epoch: time.Now()}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	hdr := traceHeader{Trace: "v1", Program: program, Started: t.epoch.UTC().Format(time.RFC3339)}
	line, _ := json.Marshal(hdr)
	t.mu.Lock()
	_, t.err = t.w.Write(append(line, '\n'))
	t.mu.Unlock()
	return t
}

// Create opens (truncating) path and returns a tracer writing to it.
func Create(path, program string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewTracer(f, program), nil
}

// Close flushes buffered spans and closes the underlying file, returning
// the first write error encountered. Safe on a nil tracer.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if t.c != nil {
		if err := t.c.Close(); err != nil && t.err == nil {
			t.err = err
		}
		t.c = nil
	}
	return t.err
}

func (t *Tracer) write(rec *spanRecord) {
	line, err := json.Marshal(rec)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(append(line, '\n')); err != nil {
		t.err = err
	}
}

// Span is one timed operation. A nil *Span (from a disabled tracer) is
// valid: every method is a no-op, which keeps instrumented call sites
// branch-free.
type Span struct {
	t      *Tracer
	parent *Span
	id     int64
	name   string
	start  time.Time

	mu     sync.Mutex
	attrs  map[string]string
	counts map[string]int64
	ended  bool
}

type ctxKey struct{}

// WithTracer returns a context carrying t; spans started from it (and its
// descendants) record into t. A nil t returns ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	// The root pseudo-span anchors nesting; it is never written out.
	return context.WithValue(ctx, ctxKey{}, &Span{t: t, start: t.epoch})
}

// StartSpan begins a span named name under the span (or tracer root) in
// ctx and returns a context carrying it. When ctx has no tracer it returns
// (ctx, nil) without allocating — instrumentation is free when disabled —
// and the nil span's methods are all no-ops.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	cur, _ := ctx.Value(ctxKey{}).(*Span)
	if cur == nil {
		return ctx, nil
	}
	s := &Span{
		t:      cur.t,
		parent: cur,
		id:     cur.t.seq.Add(1),
		name:   name,
		start:  time.Now(),
	}
	if len(attrs) > 0 {
		s.attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			s.attrs[a.Key] = a.Value
		}
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// SetAttr sets an attribute on the span. No-op on nil.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[k] = v
	s.mu.Unlock()
}

// Counts returns a copy of the span's accumulated counters: every ended
// descendant contributes {name: 1} and its own counts. Nil on a nil span.
func (s *Span) Counts() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.counts) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

func (s *Span) absorb(name string, counts map[string]int64) {
	s.mu.Lock()
	if s.counts == nil {
		s.counts = make(map[string]int64, 8)
	}
	s.counts[name]++
	for k, v := range counts {
		s.counts[k] += v
	}
	s.mu.Unlock()
}

// End completes the span: writes its record and folds its counts into the
// parent. Safe to call once per span; extra calls and nil spans are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := &spanRecord{
		ID:    s.id,
		Name:  s.name,
		TsUS:  s.start.Sub(s.t.epoch).Microseconds(),
		DurUS: end.Sub(s.start).Microseconds(),
	}
	// Copy the maps: a straggler child ending after us may still absorb
	// into s.counts while the record is being marshaled.
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			rec.Attrs[k] = v
		}
	}
	var counts map[string]int64
	if len(s.counts) > 0 {
		counts = make(map[string]int64, len(s.counts))
		for k, v := range s.counts {
			counts[k] = v
		}
		rec.Counts = counts
	}
	if s.parent != nil {
		rec.Parent = s.parent.id
	}
	s.mu.Unlock()
	s.t.write(rec)
	if s.parent != nil {
		s.parent.absorb(s.name, counts)
	}
}

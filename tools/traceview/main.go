// Command traceview converts an obs trace (trace.jsonl, produced by the
// -trace flag of cmd/experiments and cmd/smartfeat) into Chrome trace-event
// JSON, loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Usage:
//
//	traceview runs/t4/trace.jsonl > trace.json
//	traceview < trace.jsonl > trace.json
//	traceview -merge daemon.jsonl worker1.jsonl worker2.jsonl > trace.json
//
// Each span becomes one complete ("X") event. Spans are grouped into tracks
// by their root ancestor (the top-level span of each grid cell or FM call
// chain), so a grid run renders as one lane per concurrently executing
// cell. Attributes and bubbled counts land in the event's args.
//
// -merge accepts several trace files — say, a daemon and the worker
// replicas cooperating on its run root, or a loadsim client beside the
// daemon it drives — and renders them as one chronological Chrome trace:
// each file becomes its own pid lane (pid = argument position, 1-based, so
// span ids never collide across files), and every file's timestamps are
// shifted onto the epoch of the earliest-started trace using the headers'
// wall-clock Started stamps. Started has second precision, so cross-file
// alignment is exact to the second and within a file to the microsecond.
//
// The converter is also the trace validator: any malformed line — bad JSON,
// a missing header, a non-positive id, a duplicate id, a negative timestamp
// or duration, a span that is its own ancestor — fails the conversion with a
// line-numbered error and exit status 1, in -merge mode naming the offending
// file. A parent that never appears is accepted: an interrupted run leaves
// one. CI runs it over every traced grid for exactly this reason.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// header is the first line of trace.jsonl.
type header struct {
	Trace   string `json:"trace"`
	Program string `json:"program"`
	Started string `json:"started"`
}

// span is one recorded span line.
type span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent"`
	Name   string            `json:"name"`
	TsUS   int64             `json:"ts_us"`
	DurUS  int64             `json:"dur_us"`
	Attrs  map[string]string `json:"attrs"`
	Counts map[string]int64  `json:"counts"`
}

// event is one Chrome trace-event object.
type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// output is the Chrome trace "JSON object format".
type output struct {
	TraceEvents []event        `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

func main() {
	var out *output
	var err error
	switch {
	case len(os.Args) > 1 && (os.Args[1] == "-h" || os.Args[1] == "--help"):
		fmt.Fprintln(os.Stderr, "usage: traceview [trace.jsonl] > trace.json")
		fmt.Fprintln(os.Stderr, "       traceview -merge trace1.jsonl trace2.jsonl ... > trace.json")
		os.Exit(2)
	case len(os.Args) > 1 && os.Args[1] == "-merge":
		if len(os.Args) < 3 {
			fatal("-merge needs at least one trace file")
		}
		out, err = mergeFiles(os.Args[2:])
	case len(os.Args) > 1:
		var f *os.File
		f, err = os.Open(os.Args[1])
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		out, err = convert(f, os.Args[1])
	default:
		out, err = convert(os.Stdin, "<stdin>")
	}
	if err != nil {
		fatal("%v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "traceview: "+format+"\n", args...)
	os.Exit(1)
}

// parse reads and validates one trace stream. Every error is prefixed with
// name and, for per-line failures, the 1-based line number.
func parse(in io.Reader, name string) (header, []span, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)

	var hdr header
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return hdr, nil, fmt.Errorf("%s: %v", name, err)
		}
		return hdr, nil, fmt.Errorf("%s: empty trace (missing header line)", name)
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return hdr, nil, fmt.Errorf("%s:1: malformed header: %v", name, err)
	}
	if hdr.Trace != "v1" {
		return hdr, nil, fmt.Errorf("%s:1: unsupported trace version %q (want \"v1\")", name, hdr.Trace)
	}

	var spans []span
	line := make(map[int64]int) // span id → its line
	for lineNo := 2; sc.Scan(); lineNo++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return hdr, nil, fmt.Errorf("%s:%d: malformed span: %v", name, lineNo, err)
		}
		switch {
		case s.ID <= 0:
			return hdr, nil, fmt.Errorf("%s:%d: span id %d (ids are positive)", name, lineNo, s.ID)
		case s.Parent < 0:
			return hdr, nil, fmt.Errorf("%s:%d: span %d has negative parent %d", name, lineNo, s.ID, s.Parent)
		case s.Name == "":
			return hdr, nil, fmt.Errorf("%s:%d: span %d has no name", name, lineNo, s.ID)
		case s.TsUS < 0 || s.DurUS < 0:
			return hdr, nil, fmt.Errorf("%s:%d: span %d has negative time (ts=%d dur=%d)", name, lineNo, s.ID, s.TsUS, s.DurUS)
		}
		if line[s.ID] != 0 {
			return hdr, nil, fmt.Errorf("%s:%d: duplicate span id %d", name, lineNo, s.ID)
		}
		line[s.ID] = lineNo
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, fmt.Errorf("%s: %v", name, err)
	}
	if id, ok := parentCycle(spans); ok {
		return hdr, nil, fmt.Errorf("%s:%d: span %d is its own ancestor (parent cycle)", name, line[id], id)
	}
	return hdr, spans, nil
}

// parentCycle reports a span on a parent cycle, if there is one: the root
// walk in buildEvents would never end on it. Each span is walked once.
func parentCycle(spans []span) (int64, bool) {
	parent := make(map[int64]int64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	const onWalk, reachesRoot = 1, 2
	state := make(map[int64]int8, len(spans))
	var walk []int64
	for _, s := range spans {
		walk = walk[:0]
		for id := s.ID; id != 0 && state[id] != reachesRoot; id = parent[id] {
			if state[id] == onWalk {
				return id, true
			}
			state[id] = onWalk
			walk = append(walk, id)
		}
		for _, id := range walk {
			state[id] = reachesRoot
		}
	}
	return 0, false
}

// buildEvents turns one file's spans into Chrome events on the given pid
// lane, with every timestamp shifted by offsetUS.
func buildEvents(spans []span, pid int, offsetUS int64) []event {
	// Track = root ancestor. Spans are flushed on End, so children precede
	// their parents in the file; with the full map loaded, walk each chain
	// to the top. An interrupted run can leave a chain dangling at a parent
	// that never ended — the walk stops at the last recorded ancestor.
	parent := make(map[int64]int64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	root := func(id int64) int64 {
		for {
			p, ok := parent[id]
			if !ok || p == 0 {
				return id
			}
			id = p
		}
	}

	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := make(map[string]any, len(s.Attrs)+len(s.Counts)+1)
		for k, v := range s.Attrs {
			args[k] = v
		}
		for k, v := range s.Counts {
			args["count:"+k] = v
		}
		if s.Parent != 0 {
			args["parent_span"] = s.Parent
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: s.TsUS + offsetUS, Dur: s.DurUS,
			Pid: pid, Tid: root(s.ID), Args: args,
		})
	}
	return events
}

func sortEvents(events []event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Pid != events[j].Pid {
			return events[i].Pid < events[j].Pid
		}
		if events[i].Tid != events[j].Tid {
			return events[i].Tid < events[j].Tid
		}
		return events[i].Ts < events[j].Ts
	})
}

// convert reads and validates a trace stream, producing the Chrome events.
func convert(in io.Reader, name string) (*output, error) {
	hdr, spans, err := parse(in, name)
	if err != nil {
		return nil, err
	}
	events := buildEvents(spans, 1, 0)
	sortEvents(events)
	return &output{
		TraceEvents: events,
		OtherData: map[string]any{
			"program": hdr.Program,
			"started": hdr.Started,
			"spans":   len(spans),
		},
	}, nil
}

// mergeFiles parses every named trace and renders them as one chronological
// Chrome trace. Each file gets its own pid lane (its 1-based argument
// position) so span ids stay namespaced per file, and each file's
// timestamps are shifted onto the epoch of the earliest-started trace via
// the headers' wall-clock Started stamps.
func mergeFiles(names []string) (*output, error) {
	type parsed struct {
		hdr     header
		spans   []span
		started time.Time
	}
	files := make([]parsed, 0, len(names))
	var epoch time.Time
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		hdr, spans, err := parse(f, name)
		f.Close()
		if err != nil {
			return nil, err
		}
		started, err := time.Parse(time.RFC3339, hdr.Started)
		if err != nil {
			return nil, fmt.Errorf("%s:1: header started %q is not RFC3339 (merge needs it to align epochs): %v", name, hdr.Started, err)
		}
		if epoch.IsZero() || started.Before(epoch) {
			epoch = started
		}
		files = append(files, parsed{hdr: hdr, spans: spans, started: started})
	}

	var events []event
	programs := make([]string, 0, len(files))
	total := 0
	for i, p := range files {
		events = append(events, buildEvents(p.spans, i+1, p.started.Sub(epoch).Microseconds())...)
		programs = append(programs, fmt.Sprintf("%d: %s (%s)", i+1, p.hdr.Program, names[i]))
		total += len(p.spans)
	}
	sortEvents(events)
	return &output{
		TraceEvents: events,
		OtherData: map[string]any{
			"programs": programs,
			"started":  epoch.UTC().Format(time.RFC3339),
			"spans":    total,
			"files":    len(files),
		},
	}, nil
}

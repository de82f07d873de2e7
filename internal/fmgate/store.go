package fmgate

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"unicode/utf8"
)

// storeEntry is one recorded completion, serialized as a JSON line. The
// prompt's first line is kept for human inspection of recordings; the key is
// the hex content address (model name + full prompt) the gateway looks up by.
// Error records an upstream *failure* for that prompt — the simulators
// legitimately error on structurally-impossible requests (no valid group-by
// keys, not enough numeric attributes), and the error-threshold logic
// downstream counts those, so a faithful replay must reproduce them in
// sequence rather than miss.
type storeEntry struct {
	Key      string `json:"key"`
	Prompt   string `json:"prompt,omitempty"`
	Response string `json:"response,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Store is the on-disk record/replay store. One recorded run of a pipeline
// can be replayed byte-identically with zero model traffic: completions are
// keyed by content address, and repeated identical prompts (the sampling
// strategy reissues its template on purpose) replay in recorded order.
//
// A record store (NewRecordStore) appends every upstream outcome to a JSONL
// file. A replay store (OpenReplayStore) loads the file into per-key queues
// and, attached to a gateway, becomes that gateway's model (see StoreModel);
// queue.pop holds the replay rule.
type Store struct {
	mu     sync.Mutex
	w      *bufio.Writer
	closer io.Closer
	queues map[digest]*queue // nil for a record store
}

// maxRecordBytes caps one line of a recording or disk-cache shard, newline
// included. Recordings are untrusted input: a longer line is refused by the
// replay store and skipped by the disk tier instead of being buffered
// without bound. The largest record of a quick Bank, Heart, Diabetes and
// Tennis recording is about 500 bytes.
const maxRecordBytes = 64 << 10

var (
	// errRecordTooLong is a recording line longer than maxRecordBytes.
	errRecordTooLong = fmt.Errorf("record longer than %d bytes", maxRecordBytes)
	// errCompletionTooLong is an upstream outcome, a completion or an
	// error's text, whose record would be longer than maxRecordBytes after
	// JSON escaping, prompt line included. The gateway returns it instead,
	// so what it records is always replayable.
	errCompletionTooLong = fmt.Errorf("fmgate: completion record longer than %d bytes", maxRecordBytes)
	// errCompletionNotUTF8 is an upstream outcome that is not valid UTF-8:
	// JSON would replace its bad bytes, so replay could not return it as
	// it came.
	errCompletionNotUTF8 = errors.New("fmgate: completion is not valid UTF-8")
	// errRecordKey is a record whose key is not a 32-digit hex content address.
	errRecordKey = errors.New("record key is not a 32-digit hex content address")
)

// NewRecordStore opens (truncating) a recording file.
func NewRecordStore(path string) (*Store, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("fmgate: creating recording: %w", err)
	}
	return &Store{w: bufio.NewWriter(f), closer: f}, nil
}

// OpenReplayStore loads a recording for replay.
//
// Every line must be a complete JSON record terminated by a newline. A final
// line without its newline is the signature of a recording run that crashed
// (or was killed) mid-write: if that trailing fragment is not itself valid
// JSON it is reported as a truncated record — naming the interrupted
// recording as the likely cause — instead of being silently dropped or
// surfaced as a generic parse error. A line longer than maxRecordBytes
// (errRecordTooLong) and a key that is not a hex content address
// (errRecordKey) are refused with their line number too.
func OpenReplayStore(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fmgate: opening recording: %w", err)
	}
	defer f.Close()
	s := &Store{queues: make(map[digest]*queue)}
	r := bufio.NewReaderSize(f, maxRecordBytes)
	line := 0
	for {
		raw, readErr := r.ReadSlice('\n')
		if readErr == bufio.ErrBufferFull {
			return nil, fmt.Errorf("fmgate: recording %s line %d: %w", path, line+1, errRecordTooLong)
		}
		if len(raw) > 0 {
			line++
			terminated := raw[len(raw)-1] == '\n'
			data := bytes.TrimRight(raw, "\r\n")
			if len(data) > 0 {
				var e storeEntry
				if err := json.Unmarshal(data, &e); err != nil {
					if !terminated && readErr == io.EOF {
						return nil, fmt.Errorf("fmgate: recording %s line %d: truncated trailing record (interrupted recording run?): %w", path, line, err)
					}
					return nil, fmt.Errorf("fmgate: recording %s line %d: %w", path, line, err)
				}
				key, ok := parseDigest(e.Key)
				if !ok {
					return nil, fmt.Errorf("fmgate: recording %s line %d: %w", path, line, errRecordKey)
				}
				q := s.queues[key]
				if q == nil {
					q = &queue{}
					s.queues[key] = q
				}
				q.entries = append(q.entries, replayEntry{response: e.Response, err: e.Error})
			}
		}
		if readErr == io.EOF {
			break
		}
		if readErr != nil {
			return nil, fmt.Errorf("fmgate: reading recording: %w", readErr)
		}
	}
	return s, nil
}

// replayEntry is one queued replay outcome: a response or a recorded
// upstream error. learned marks an outcome this process paid for itself
// (DiskCache.Learn): it is there for peers and is never re-served to us.
type replayEntry struct {
	response string
	err      string
	learned  bool
}

// queue is one content address's recorded outcomes in order plus the replay
// cursor. Store and DiskCache both serve through its pop.
type queue struct {
	entries []replayEntry
	next    int
}

// pop serves the next outcome — a response, or a recorded upstream error,
// which callers reproduce as an error so error-threshold logic counts the
// same failures the recording run saw. Once the queue is drained, sticky
// (cacheable, deterministic) keys re-serve their last recorded outcome: the
// recording run may have served later repeats from its cache, and the repeat
// is exactly what a deterministic FM returns. Sampling keys miss instead,
// because each recorded entry stands for a distinct draw and serving one
// twice would silently fabricate duplicate candidates. Learned entries are
// never re-served: a repeat of our own paid completion goes upstream exactly
// as it would without the queue.
func (q *queue) pop(sticky bool) (replayEntry, bool) {
	if q.next < len(q.entries) {
		q.next++
		return q.entries[q.next-1], true
	}
	if sticky {
		for i := len(q.entries) - 1; i >= 0; i-- {
			if !q.entries[i].learned {
				return q.entries[i], true
			}
		}
	}
	return replayEntry{}, false
}

// replaying reports whether s was opened for replay.
func (s *Store) replaying() bool { return s.queues != nil }

// pop serves the key's next recorded outcome (queue.pop).
func (s *Store) pop(key digest, sticky bool) (replayEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.queues[key]; q != nil {
		return q.pop(sticky)
	}
	return replayEntry{}, false
}

// marshalRecord renders one outcome as a recording line, newline included:
// the format of record stores and disk-cache shards alike.
func marshalRecord(key digest, prompt, response, errMsg string) ([]byte, error) {
	b, err := json.Marshal(storeEntry{Key: key.String(), Prompt: firstLine(prompt), Response: response, Error: errMsg})
	return append(b, '\n'), err
}

// recordOverhead is a recording line's length with an empty prompt line,
// response and error: the JSON punctuation, field names and 32-digit key.
const recordOverhead = len(`{"key":"","prompt":"","response":"","error":""}`+"\n") + 32

// recordable passes an upstream outcome through when a recording holds it
// byte for byte, and turns it into errCompletionTooLong or
// errCompletionNotUTF8 otherwise. The gateway applies it to every upstream
// outcome, recording or not, so a recorded run sees what an unrecorded one
// does.
func recordable(key digest, prompt, text string, err error) (string, error) {
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	if !utf8.ValidString(text) || !utf8.ValidString(errMsg) {
		return "", errCompletionNotUTF8
	}
	// JSON escapes a byte to at most 6 ("\u00XX"), so short outcomes fit
	// without being encoded here.
	if recordOverhead+6*(len(firstLine(prompt))+len(text)+len(errMsg)) <= maxRecordBytes {
		return text, err
	}
	if line, _ := marshalRecord(key, prompt, text, errMsg); len(line) > maxRecordBytes {
		return "", fmt.Errorf("%w: %d bytes", errCompletionTooLong, len(line))
	}
	return text, err
}

// record appends one completion or upstream error (record mode).
func (s *Store) record(key digest, prompt, response, errMsg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	line, err := marshalRecord(key, prompt, response, errMsg)
	if err != nil {
		return err
	}
	if _, err := s.w.Write(line); err != nil {
		return err
	}
	// Flush per entry: a recording interrupted by Ctrl-C stays replayable up
	// to the last completed call.
	return s.w.Flush()
}

// Close flushes and closes the recording file (no-op for replay stores).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w != nil {
		if err := s.w.Flush(); err != nil {
			return err
		}
	}
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

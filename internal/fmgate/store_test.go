package fmgate

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartfeat/internal/fm"
)

// contentKey is contentDigest in the hex form recordings store.
func contentKey(scope, name, prompt string) string {
	return contentDigest(scope, name, prompt).String()
}

// TestContentKeyPinned pins the content address to literal keys: every
// recording and disk-cache shard is keyed by these bytes, so a change to how
// the key is hashed must fail here rather than silently miss every replay.
func TestContentKeyPinned(t *testing.T) {
	const prompt = "Task: complete-row\nRow: Age: 21, City: SF, X: ?\n"
	for _, tc := range []struct{ scope, want string }{
		{"", "a153e4ec11355c551a715c1500be3c46"},
		{"Bank__SMARTFEAT", "4fb6ac3a6b7a2df71ad22a11c95b99ca"},
	} {
		if got := contentKey(tc.scope, "gpt-3.5-turbo", prompt); got != tc.want {
			t.Errorf("contentKey(%q, …) = %s, want %s", tc.scope, got, tc.want)
		}
	}
}

// recordLine is a recording line for key whose response pads it to exactly
// n bytes, newline included.
func recordLine(key string, n int) string {
	head, tail := `{"key":"`+key+`","response":"`, `"}`+"\n"
	return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
}

// FuzzOpenReplayStore opens arbitrary bytes as a recording. It must never
// panic, and a recording it accepts holds one outcome per line that is
// non-empty once its line ending is trimmed. The "k" keys are not content
// addresses and must be refused.
//
// The first '@' of the input expands to pad bytes of 'x', so a small corpus
// entry can stand for a record at, or past, maxRecordBytes and the mutator
// can move it across the cap by changing one number.
func FuzzOpenReplayStore(f *testing.F) {
	const key = "a153e4ec11355c551a715c1500be3c46"
	for _, seed := range []string{
		`{"key":"` + key + `","prompt":"You are assisting","response":"42"}` + "\n",
		`{"key":"k","response":"1"}` + "\r\n\n" + `{"key":"k","error":"fmgate: upstream exploded"}` + "\n",
		`{"key":"k","response":"1"}` + "\n" + `{"key":"k","resp`,
		`{"key":"k"}`,
		"\n\r\n",
		"",
		"null\n",
		// Malformed keys: too short, too long, not hex, missing.
		`{"key":"` + key[:31] + `","response":"1"}` + "\n",
		`{"key":"` + key + `0","response":"1"}` + "\n",
		`{"key":"` + strings.Repeat("zz", 16) + `","response":"1"}` + "\n",
		`{"response":"1"}` + "\n",
	} {
		f.Add([]byte(seed), uint16(0))
	}
	// Size-directed: a record at the cap, one past it after a short record,
	// and an unterminated one past it.
	padded := `{"key":"` + key + `","response":"@"}` + "\n"
	atCap := uint16(maxRecordBytes - len(padded) + 1)
	f.Add([]byte(padded), atCap)
	f.Add([]byte(recordLine(key, 80)+padded), atCap+1)
	f.Add([]byte(strings.TrimSuffix(padded, "\n")), atCap+1)
	f.Fuzz(func(t *testing.T, in []byte, pad uint16) {
		in = bytes.Replace(in, []byte("@"), bytes.Repeat([]byte("x"), int(pad)), 1)
		path := filepath.Join(t.TempDir(), "rec.fmrec")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenReplayStore(path)
		if err != nil {
			return
		}
		want := 0
		for _, line := range strings.Split(string(in), "\n") {
			if strings.TrimRight(line, "\r\n") != "" {
				want++
			}
			if len(line) >= maxRecordBytes {
				t.Fatalf("accepted a %d-byte line", len(line)+1)
			}
		}
		if got := storeLen(s); got != want {
			t.Fatalf("storeLen = %d, want %d non-empty lines", got, want)
		}
	})
}

// storeLen counts the recorded outcomes a replay store holds.
func storeLen(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, q := range s.queues {
		n += len(q.entries)
	}
	return n
}

// TestOpenReplayStoreBounds: a record up to maxRecordBytes, newline
// included, loads; a longer line and a key that is not a 32-digit hex
// content address are refused as named errors that carry the line number.
func TestOpenReplayStoreBounds(t *testing.T) {
	key := testKey("k").String()
	path := filepath.Join(t.TempDir(), "rec.fmrec")
	open := func(data string) (*Store, error) {
		t.Helper()
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return OpenReplayStore(path)
	}
	s, err := open(recordLine(key, 80) + recordLine(key, maxRecordBytes))
	if err != nil {
		t.Fatalf("record at the cap refused: %v", err)
	}
	if n := storeLen(s); n != 2 {
		t.Fatalf("storeLen = %d, want 2", n)
	}
	for _, tc := range []struct {
		name, data string
		want       error
		line       string
	}{
		{"over the cap", recordLine(key, 80) + recordLine(key, maxRecordBytes+1), errRecordTooLong, "line 2:"},
		{"unterminated over the cap", strings.TrimSuffix(recordLine(key, maxRecordBytes+1), "\n"), errRecordTooLong, "line 1:"},
		{"short key", recordLine(key, 80) + "\n" + recordLine(key[:31], 80), errRecordKey, "line 3:"},
		{"non-hex key", recordLine(strings.Repeat("g", 32), 80), errRecordKey, "line 1:"},
		{"no key", `{"response":"1"}` + "\n", errRecordKey, "line 1:"},
	} {
		_, err := open(tc.data)
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.line) {
			t.Errorf("%s: err = %v, want %v at %s", tc.name, err, tc.want, tc.line)
		}
	}
}

// TestRecordReplayUnrecordableCompletion: a completion whose record would
// not fit maxRecordBytes after JSON escaping, or that is not valid UTF-8,
// comes back from the recording gateway as a named upstream error and is
// recorded as one, so the recording opens and replay reproduces the error.
// A completion that fits replays byte for byte.
func TestRecordReplayUnrecordableCompletion(t *testing.T) {
	const prompt = "You are assisting with automated feature engineering for a tabular dataset.\nTask: generate\n"
	for _, tc := range []struct {
		name, response string
		want           error
	}{
		{"fits", strings.Repeat("x", 40<<10), nil},
		{"70 KiB", strings.Repeat("x", 70<<10), errCompletionTooLong},
		{"escaped past the cap", strings.Repeat("<", 12<<10), errCompletionTooLong},
		{"not UTF-8", "ok\xff", errCompletionNotUTF8},
	} {
		path := filepath.Join(t.TempDir(), "rec.fmrec")
		store, err := NewRecordStore(path)
		if err != nil {
			t.Fatal(err)
		}
		text, err := New(fm.NewScripted(tc.response), Options{Store: store}).Complete(context.Background(), prompt)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: recording run err = %v, want %v", tc.name, err, tc.want)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		replay, oerr := OpenReplayStore(path)
		if oerr != nil {
			t.Fatalf("%s: recording refused on replay: %v", tc.name, oerr)
		}
		rtext, rerr := New(fm.NewScripted(), Options{Store: replay}).Complete(context.Background(), prompt)
		switch {
		case err == nil && (rerr != nil || rtext != text || text != tc.response):
			t.Fatalf("%s: replay = %d bytes, %v; recorded %d bytes", tc.name, len(rtext), rerr, len(text))
		case err != nil && (rerr == nil || rerr.Error() != "fmgate: replayed upstream error: "+err.Error()):
			t.Fatalf("%s: replay err = %v, recorded %v", tc.name, rerr, err)
		}
	}
}

// FuzzRecordReplay: whatever a record store writes of an upstream outcome
// the gateway passed (recordable), the replay store reads back byte for
// byte; and the gateway refuses only what a record could not hold. As in
// FuzzOpenReplayStore, the first '@' of the outcome expands to pad bytes
// of 'x', so the corpus can reach the cap.
func FuzzRecordReplay(f *testing.F) {
	const prompt = "You are assisting with automated feature engineering for a tabular dataset.\nTask: x\n"
	f.Add(prompt, "42", false, uint16(0))
	f.Add(prompt, "fm: simulated generation error", true, uint16(0))
	f.Add("", "", false, uint16(0))
	f.Add(strings.Repeat("p", 200)+"\n", "\"quoted\" <tag> & \u2028\n\t\x01", false, uint16(0))
	f.Add(prompt, "bad \xff utf-8", false, uint16(0))
	f.Add(prompt, "@", false, uint16(maxRecordBytes-recordOverhead-80))
	f.Add(prompt, "@", false, uint16(maxRecordBytes-recordOverhead-70))
	f.Add(prompt, "<<<<<<<<<<@", true, uint16(10<<10))
	f.Fuzz(func(t *testing.T, prompt, out string, fail bool, pad uint16) {
		out = strings.Replace(out, "@", strings.Repeat("x", int(pad)), 1)
		upText, upMsg, upErr := out, "", error(nil)
		if fail {
			upText, upMsg, upErr = "", out, errors.New(out)
		}
		key := contentDigest("", "fuzz", prompt)
		text, err := recordable(key, prompt, upText, upErr)
		errMsg := ""
		if err != nil {
			errMsg = err.Error()
		}
		if err != upErr {
			if !errors.Is(err, errCompletionTooLong) && !errors.Is(err, errCompletionNotUTF8) {
				t.Fatalf("refused with an unnamed error: %v", err)
			}
			if line, _ := marshalRecord(key, prompt, upText, upMsg); errors.Is(err, errCompletionTooLong) && len(line) <= maxRecordBytes {
				t.Fatalf("refused a %d-byte record", len(line))
			}
		} else if text != upText {
			t.Fatalf("passed the outcome but changed its text")
		}
		path := filepath.Join(t.TempDir(), "rec.fmrec")
		s, serr := NewRecordStore(path)
		if serr != nil {
			t.Fatal(serr)
		}
		if serr := s.record(key, prompt, text, errMsg); serr != nil {
			t.Fatal(serr)
		}
		if serr := s.Close(); serr != nil {
			t.Fatal(serr)
		}
		r, oerr := OpenReplayStore(path)
		if oerr != nil {
			t.Fatalf("recorded outcome not replayable: %v", oerr)
		}
		e, ok := r.pop(key, false)
		if !ok || e.response != text || e.err != errMsg {
			t.Fatalf("replayed %q/%q, recorded %q/%q", e.response, e.err, text, errMsg)
		}
	})
}

package fmgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

// FuzzOpenReplayStore opens arbitrary bytes as a recording. It must never
// panic, and a recording it accepts holds one outcome per line that is
// non-empty once its line ending is trimmed.
func FuzzOpenReplayStore(f *testing.F) {
	for _, seed := range []string{
		`{"key":"a153e4ec11355c551a715c1500be3c46","prompt":"You are assisting","response":"42"}` + "\n",
		`{"key":"k","response":"1"}` + "\r\n\n" + `{"key":"k","error":"fmgate: upstream exploded"}` + "\n",
		`{"key":"k","response":"1"}` + "\n" + `{"key":"k","resp`,
		`{"key":"k"}`,
		"\n\r\n",
		"",
		"null\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
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

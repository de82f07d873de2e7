package jsonio

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestWriteAtomicConcurrentWriters: writers of one path — peer workers
// rewriting a shared manifest — must all commit, and the file must always
// hold one writer's complete contents.
func TestWriteAtomicConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	const writers, writes = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				if err := WriteAtomic(path, map[string]int{"writer": w, "write": i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]int
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("committed file is not one writer's JSON: %v\n%s", err, raw)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %d directory entries", len(entries))
	}
}

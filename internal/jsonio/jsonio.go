// Package jsonio holds the one JSON-file idiom the run engine's persistence
// layers share: atomic writes. Artifacts, run manifests and recording
// manifests are all read back by later processes (resume, replay), so a
// crash mid-write must never leave a half-written file behind.
package jsonio

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// WriteAtomic marshals v (indented, trailing newline) and commits it to path
// via a temp file + rename, so readers only ever observe the old or the new
// complete contents. Each call writes its own uniquely named temp file, so
// concurrent writers of one path never rename each other's temp away.
func WriteAtomic(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("jsonio: encoding %s: %w", path, err)
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("jsonio: writing %s: %w", path, err)
	}
	tmp := f.Name()
	_, err = f.Write(append(b, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, 0o644)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jsonio: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jsonio: committing %s: %w", path, err)
	}
	return nil
}

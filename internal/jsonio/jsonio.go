// Package jsonio holds the JSON idioms the program shares: atomic writes
// (artifacts and manifests are read back by later processes, so a crash
// mid-write must never leave a half-written file) and strict decoding of
// job specs, where a misspelled key must be an error, not a wider job.
package jsonio

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// DecodeStrict decodes exactly one JSON value from r into v, refusing
// fields v does not declare and anything but whitespace after the value.
// Read errors (an http.MaxBytesError, say) come back unwrapped.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return cmp.Or(err, errors.New("unexpected data after the JSON value"))
	}
	return nil
}

// WriteAtomic marshals v (indented, trailing newline) and commits it to path
// via a temp file + rename, so readers only ever observe the old or the new
// complete contents. Each call writes its own uniquely named temp file, so
// concurrent writers of one path never rename each other's temp away.
//
// The guarantee covers a crash of the writing process only. Neither the temp
// file nor its directory is fsynced, so after an OS crash or power loss the
// rename may be lost, or path may name a file whose data never reached disk.
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

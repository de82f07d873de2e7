package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
)

// frameDigest hashes a frame's column list and every value and null mark
// of its series.
func frameDigest(f *dataframe.Frame) [32]byte {
	h := sha256.New()
	var b [8]byte
	for _, name := range f.Names() {
		c := f.Column(name)
		h.Write([]byte(name))
		h.Write([]byte{0, byte(c.Kind)})
		for _, v := range c.Floats() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		for i := 0; c.Kind == dataframe.Categorical && i < c.Len(); i++ {
			h.Write([]byte(c.ValueString(i)))
			h.Write([]byte{0})
		}
		for _, null := range c.Null {
			if null {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// TestMethodsLeaveInputUnchanged guards the dataframe package's contract
// that a series in a frame is never written again, on which every frame
// copy relies to share its series. Every comparison method runs on every
// dataset, CAAFE's per-model sessions two at a time, and the loaded and
// cleaned input frames must digest the same before and after. Under the
// race detector a write to a series shared between concurrent sessions
// also fails here.
func TestMethodsLeaveInputUnchanged(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxTrainRows = 300
	cfg.CAAFEIterations = 2
	cfg.Workers = 2
	for _, name := range datasets.Names() {
		d, err := datasets.Load(name, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		clean := d.Frame.DropNA()
		loaded, cleaned := frameDigest(d.Frame), frameDigest(clean)
		for _, method := range ComparisonMethods() {
			if _, err := runMethodOn(context.Background(), d, clean, method, cfg); err != nil {
				t.Fatalf("%s × %s: %v", name, method, err)
			}
			if frameDigest(d.Frame) != loaded || frameDigest(clean) != cleaned {
				t.Fatalf("%s × %s wrote into its input frame", name, method)
			}
		}
	}
}

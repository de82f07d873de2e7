package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"math/rand"
	"strings"
	"testing"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
	"smartfeat/internal/fm"
)

// promptLog is an fm.Model that feeds every prompt it forwards into a
// shared hash, so one digest covers the whole prompt sequence of a run.
type promptLog struct {
	fm.Model
	h     hash.Hash
	count *int
}

func (p promptLog) Complete(ctx context.Context, prompt string) (string, error) {
	io.WriteString(p.h, prompt)
	p.h.Write([]byte{0})
	*p.count++
	return p.Model.Complete(ctx, prompt)
}

// TestRunPromptSequenceUnchanged pins the SHA-256 of every prompt SMARTFEAT
// sends on two quick-configuration datasets (Diabetes is all numeric, Heart
// mixes in categoricals). Recordings, caches and replay all key on prompt
// bytes, so a change to how the agenda or the templates render shows here
// first.
func TestRunPromptSequenceUnchanged(t *testing.T) {
	const want = "6984855ad14cda6adc898c92ee281228a534547c61e5e6de0235549ea1329a98"
	h := sha256.New()
	calls := 0
	for _, name := range []string{"Diabetes", "Heart"} {
		d, err := datasets.Load(name, 2024)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(d.Frame.DropNA(), Options{
			Target:            d.Target,
			TargetDescription: d.TargetDescription,
			Descriptions:      d.Descriptions,
			Model:             "RF",
			SelectorFM:        promptLog{fm.NewGPT4Sim(2024, 0.02), h, &calls},
			GeneratorFM:       promptLog{fm.NewGPT35Sim(2025, 0.02), h, &calls},
			SamplingBudget:    6,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want || calls != 92 {
		t.Fatalf("prompt sequence of %d prompts hashes to %s, want %s over 92", calls, got, want)
	}
}

// freshRender renders the agenda the long way: every listed column is
// summarised by scanning the frame as it is now.
func freshRender(f *dataframe.Frame, a *Agenda) string {
	var b strings.Builder
	b.WriteString("Dataset description:\n")
	for _, name := range a.Columns() {
		col := f.Column(name)
		info := fm.AgendaColumn{
			Name:        name,
			Description: a.descriptions[name],
			Numeric:     col.Kind == dataframe.Numeric,
			Cardinality: col.Cardinality(),
		}
		if info.Numeric {
			info.Min, info.Max = col.Bounds()
		} else {
			info.Levels = col.Levels()
		}
		b.WriteString(fm.FormatAgendaColumn(info) + "\n")
	}
	return b.String()
}

func TestAgendaRenderMatchesFreshScan(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "is safe", insuranceDescriptions)
	check := func(step string) {
		t.Helper()
		if got, want := a.Render(), freshRender(f, a); got != want {
			t.Fatalf("after %s: Render() =\n%s\nfresh scan =\n%s", step, got, want)
		}
	}
	check("NewAgenda")
	for _, spec := range []TransformSpec{
		{Kind: KindBucketize, Input: "Age", Boundaries: []float64{21, 35, 50}},
		{Kind: KindDummies, Input: "City"},
		{Kind: KindGroupBy, Group: []string{"Make"}, Agg: "Age", Function: "mean"},
	} {
		name := string(spec.Kind) + "_feature"
		added, err := spec.Apply(f, name)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range added {
			if err := a.Add(col, ""); err != nil {
				t.Fatal(err)
			}
		}
		check("adding " + name)
	}
	a.Remove("City")
	f.Drop("City")
	check("removing City")
	a.Remove("bucketize_feature")
	check("removing a generated feature")
}

// BenchmarkAgendaRender renders the agenda of a Bank-sized frame (41,189
// rows, 18 features plus the target) after a few generated features joined
// it: the work every SMARTFEAT prompt repeats.
func BenchmarkAgendaRender(b *testing.B) {
	d, err := datasets.Load("Bank", 2024)
	if err != nil {
		b.Fatal(err)
	}
	f := d.Frame
	a := NewAgenda(f, d.Target, d.TargetDescription, d.Descriptions)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		vals := make([]float64, f.Len())
		for r := range vals {
			vals[r] = float64(rng.Intn(1000))
		}
		name := "generated_" + string(rune('a'+i))
		if err := f.AddNumeric(name, vals); err != nil {
			b.Fatal(err)
		}
		if err := a.Add(name, ""); err != nil {
			b.Fatal(err)
		}
	}
	for b.Loop() {
		a.Render()
	}
}

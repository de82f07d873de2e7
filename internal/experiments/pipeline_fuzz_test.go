package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"smartfeat/internal/core"
	"smartfeat/internal/dataframe"
	"smartfeat/internal/fm"
)

// Tables that once ended the process, as the CLI reads them.
const (
	// Every row has a null: DropNA leaves no row to split.
	allNullCSV = "a,b,y\n,,1\n,,0\n,,1\n,,0\n"
	// The only feature is categorical: its dummies leave the binary
	// sampler no numeric pair with a positive score.
	oneCategoricalCSV = "c,y\nx,1\ny,0\nz,1\n"
)

// nullableManyLevelCSV has a categorical column with nulls and more levels
// than SMARTFEAT's dummy cap, so its one-hot indicators share a Null mask,
// fold into "=other", and are taken by DropNA.
func nullableManyLevelCSV() string {
	var b strings.Builder
	b.WriteString("grade,n,y\n")
	for i := 0; i < 40; i++ {
		grade := string(rune('a' + i%12))
		if i%9 == 4 {
			grade = ""
		}
		fmt.Fprintf(&b, "%s,%d,%d\n", grade, i*7%23, i%2)
	}
	return b.String()
}

// TestEvaluateFrameTooFewRows holds EvaluateFrame to an error, not a
// panic, when DropNA leaves fewer rows than a train/test split needs.
func TestEvaluateFrameTooFewRows(t *testing.T) {
	f, err := dataframe.ReadCSVString(allNullCSV)
	if err != nil {
		t.Fatal(err)
	}
	clean := f.DropNA()
	_, _, err = EvaluateFrame(context.Background(), clean, "y", QuickConfig().Models, QuickConfig())
	if err == nil || !strings.Contains(err.Error(), "0 rows") {
		t.Fatalf("EvaluateFrame on 0 rows: err = %v, want one naming the row count", err)
	}
}

// TestRunContextNoRows holds SMARTFEAT to refusing the 0-row frame DropNA
// leaves of an all-null table before its first prompt: an error naming the
// row count, and no call on either model.
func TestRunContextNoRows(t *testing.T) {
	f, err := dataframe.ReadCSVString(allNullCSV)
	if err != nil {
		t.Fatal(err)
	}
	opts := pipelineOptions()
	_, err = core.RunContext(context.Background(), f.DropNA(), opts)
	if err == nil || !strings.Contains(err.Error(), "0 rows") {
		t.Fatalf("RunContext on 0 rows: err = %v, want one naming the row count", err)
	}
	if s, g := opts.SelectorFM.Usage().Calls, opts.GeneratorFM.Usage().Calls; s != 0 || g != 0 {
		t.Fatalf("RunContext on 0 rows made %d selector and %d generator calls, want none", s, g)
	}
}

// TestRunOneCategoricalFeature holds SMARTFEAT to finishing on a table
// whose only feature is categorical: the binary family counts its failed
// samples instead of panicking.
func TestRunOneCategoricalFeature(t *testing.T) {
	f, err := dataframe.ReadCSVString(oneCategoricalCSV)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(f, pipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors[core.OpFamilyBinary] == 0 {
		t.Fatalf("binary family errors = %v, want the empty pair list to count", res.Errors)
	}
}

// TestRunDataSourceOnce holds SMARTFEAT to suggesting a data source once:
// on the one-categorical table the extractor family samples the same
// suggestion again, and the repeat is rejected as a duplicate feature is.
func TestRunDataSourceOnce(t *testing.T) {
	f, err := dataframe.ReadCSVString(oneCategoricalCSV)
	if err != nil {
		t.Fatal(err)
	}
	opts := pipelineOptions()
	opts.SamplingBudget = 0 // the default, as the CLI runs it
	res, err := core.Run(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	repeats := 0
	for _, g := range res.Features {
		name := g.Candidate.Name
		switch {
		case g.Status == core.StatusDataSource && seen[name]:
			t.Fatalf("data source %q suggested twice: %v", name, res.Suggestions())
		case g.Status == core.StatusDataSource:
			seen[name] = true
		case seen[name] && g.Status == core.StatusFailed && strings.Contains(g.Detail, "duplicate"):
			repeats++
		}
	}
	if len(seen) == 0 || repeats == 0 {
		t.Fatalf("%d suggestions and %d rejected repeats, want the table to sample a repeat: %+v", len(seen), repeats, res.Features)
	}
}

func pipelineOptions() core.Options {
	return core.Options{
		Target:         "y",
		SelectorFM:     fm.NewGPT4Sim(11, 0),
		GeneratorFM:    fm.NewGPT35Sim(12, 0),
		SamplingBudget: 2,
	}
}

// runPipeline runs a CSV table through SMARTFEAT and evaluation, with the
// last column as the target, and renders what came out: the augmented CSV
// and each model's AUC bits, or the error that stopped it.
func runPipeline(text string) string {
	f, err := dataframe.ReadCSVString(text)
	if err != nil {
		return "read: " + err.Error()
	}
	names := f.Names()
	opts := pipelineOptions()
	opts.Target = names[len(names)-1]
	res, err := core.Run(f, opts)
	if err != nil {
		return "run: " + err.Error()
	}
	var out bytes.Buffer
	if err := res.Frame.WriteCSV(&out); err != nil {
		return "write: " + err.Error()
	}
	cfg := QuickConfig()
	cfg.Workers = 1
	aucs, failed, err := EvaluateFrame(context.Background(), res.Frame.DropNA(), opts.Target, cfg.Models, cfg)
	if err != nil {
		fmt.Fprintf(&out, "evaluate: %v\n", err)
		return out.String()
	}
	models := make([]string, 0, len(aucs)+len(failed))
	for m := range aucs {
		models = append(models, m)
	}
	for m := range failed {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		fmt.Fprintf(&out, "%s %x %s\n", m, math.Float64bits(aucs[m]), failed[m])
	}
	return out.String()
}

// FuzzPipeline runs small CSV tables through ReadCSVString, SMARTFEAT with
// simulated FMs at a sampling budget of 2, and EvaluateFrame. No table may
// panic, and the same table run twice must give the same augmented CSV and
// the same AUC bits: a run's seeds, not its schedule, decide its output.
func FuzzPipeline(f *testing.F) {
	f.Add(allNullCSV)
	f.Add(oneCategoricalCSV)
	f.Add(nullableManyLevelCSV())
	f.Fuzz(func(t *testing.T, text string) {
		// Small tables only: SMARTFEAT's work grows with the width, and
		// evaluation's with the rows.
		if len(text) > 2048 || strings.Count(text, "\n") > 64 {
			t.Skip()
		}
		if header, _, _ := strings.Cut(text, "\n"); strings.Count(header, ",") > 5 {
			t.Skip()
		}
		first := runPipeline(text)
		if second := runPipeline(text); second != first {
			t.Fatalf("two runs of one table differ:\n%s\n---\n%s", first, second)
		}
	})
}

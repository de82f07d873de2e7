package caafe

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"strings"
	"testing"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/fm"
)

// promptLog is an fm.Model that feeds every prompt it forwards into a
// shared hash, so one digest covers a session's whole prompt sequence.
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

// venueFrame is ratioFrame plus a categorical column, so the card carries
// both kinds of line.
func venueFrame(t *testing.T) *dataframe.Frame {
	t.Helper()
	f := ratioFrame(t, 600, 0.05, 4)
	venues := make([]string, f.Len())
	for i := range venues {
		venues[i] = []string{"home", "away", "neutral"}[i%3]
	}
	if err := f.Add(dataframe.NewCategorical("Venue", venues)); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRunPromptSequenceUnchanged pins the SHA-256 of every prompt two CAAFE
// sessions send, across iterations that retain features (columns enter the
// card) and reject them (columns leave it). Recordings and replay key on
// prompt bytes, so a stale or missing card line shows here first.
func TestRunPromptSequenceUnchanged(t *testing.T) {
	const want = "e11251e55c94084b17b5ce0bdef90c1240858d37a36019f8d53723646f829e83"
	h := sha256.New()
	calls, generated, retained := 0, 0, 0
	for _, downstream := range []string{"LR", "RF"} {
		cfg := DefaultConfig()
		cfg.Seed = 11
		res, err := Run(tctx, venueFrame(t), "y", descriptions, promptLog{fm.NewGPT4Sim(5, 0), h, &calls}, downstream, cfg)
		if err != nil {
			t.Fatal(err)
		}
		generated += res.Generated
		retained += res.Retained
	}
	if retained == 0 || retained == generated {
		t.Fatalf("want both retained and rejected candidates, got %d of %d retained", retained, generated)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want || calls != 49 {
		t.Fatalf("prompt sequence of %d prompts hashes to %s, want %s over 49", calls, got, want)
	}
}

// freshPrompt renders the card the long way: every column is summarised by
// scanning the frame as it is now.
func freshPrompt(f *dataframe.Frame, target string, descriptions map[string]string, task string) string {
	var b strings.Builder
	b.WriteString("You are assisting with semi-automated data science feature engineering.\n")
	fmt.Fprintf(&b, "Task: %s\n", task)
	b.WriteString("Dataset description:\n")
	for _, name := range f.Names() {
		if name != target {
			b.WriteString(fm.FormatAgendaColumn(fm.SeriesColumn(f.Column(name), descriptions[name])) + "\n")
		}
	}
	fmt.Fprintf(&b, "Prediction class: %s\n", target)
	b.WriteString("Suggest one new feature as pandas code combining existing numeric columns. " +
		"Respond with a single JSON object: {\"op\": add|subtract|multiply|divide, \"left\": col, \"right\": col, \"name\": feature_name}.\n")
	return b.String()
}

func TestCardPromptMatchesFreshScan(t *testing.T) {
	f := venueFrame(t)
	c := newCard(f, "y", descriptions)
	check := func(step string) {
		t.Helper()
		for _, task := range []string{fm.TaskSampleBinary, fm.TaskSampleExtractor} {
			if got, want := c.prompt(task), freshPrompt(f, "y", descriptions, task); got != want {
				t.Fatalf("after %s: prompt =\n%s\nfresh scan =\n%s", step, got, want)
			}
		}
	}
	check("newCard")
	for _, cand := range []candidate{
		{op: "divide", left: "TotalWins", right: "TotalAttempts", name: "win_rate"},
		{op: "multiply", left: "Misc", right: "TotalWins", name: "misc_wins"},
		{op: "subtract", left: "TotalAttempts", right: "Misc", name: "gap"},
	} {
		if err := c.add(cand.name, cand.compute(f)); err != nil {
			t.Fatal(err)
		}
		check("add " + cand.name)
	}
	c.drop("misc_wins")
	check("drop misc_wins")
	c.drop("Misc")
	check("drop Misc")
	if err := c.add("misc_wins", (candidate{op: "add", left: "TotalWins", right: "gap"}).compute(f)); err != nil {
		t.Fatal(err)
	}
	check("re-add misc_wins with new values")
}

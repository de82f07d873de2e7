package smartfeat_test

import (
	"context"
	"strings"
	"testing"

	"smartfeat"
)

const facadeCSV = `Age,Income,Visits,City,Label
25,40000,3,SF,0
34,52000,12,LA,1
45,88000,30,SEA,1
52,61000,8,SF,0
23,28000,1,LA,0
38,73000,22,SEA,1
29,41000,4,SF,0
61,95000,28,LA,1
26,35000,3,SEA,0
47,82000,19,SF,1
33,48000,6,LA,0
55,90000,25,SEA,1
`

func TestFacadeRun(t *testing.T) {
	f, err := smartfeat.ReadCSVString(facadeCSV)
	if err != nil {
		t.Fatal(err)
	}
	res, err := smartfeat.Run(f, smartfeat.Options{
		Target:      "Label",
		SelectorFM:  smartfeat.NewGPT4Sim(1, 0),
		GeneratorFM: smartfeat.NewGPT35Sim(2, 0),
		Descriptions: map[string]string{
			"Age":    "Age of the customer in years",
			"Income": "Annual income in dollars",
			"Visits": "Number of store visits last year",
			"City":   "City of residence",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) == 0 {
		t.Fatal("no candidates generated through the facade")
	}
	if res.SelectorUsage.Calls == 0 {
		t.Fatal("usage not surfaced")
	}
	// Age must have been bucketized with the KB's 21-year threshold.
	if !res.Frame.Has("Bucketize_Age") {
		t.Fatalf("expected Bucketize_Age; columns: %v", res.Frame.Names())
	}
}

func TestFacadeDatasets(t *testing.T) {
	names := smartfeat.DatasetNames()
	if len(names) != 8 {
		t.Fatalf("want 8 datasets, got %d", len(names))
	}
	d, err := smartfeat.LoadDataset("Tennis", 7)
	if err != nil {
		t.Fatal(err)
	}
	if d.Frame.Len() != 944 {
		t.Fatalf("tennis rows = %d", d.Frame.Len())
	}
	if _, err := smartfeat.LoadDataset("Nope", 7); err == nil {
		t.Fatal("unknown dataset should error")
	}
}

func TestFacadeCompleteRows(t *testing.T) {
	f, err := smartfeat.ReadCSVString("City,Age\nSF,21\nLA,33\n")
	if err != nil {
		t.Fatal(err)
	}
	vals, err := smartfeat.CompleteRows(context.Background(), smartfeat.NewGPT35Sim(1, 0), f, "Population_Density", 2)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 18838 || vals[1] != 8304 {
		t.Fatalf("row completions wrong: %v", vals)
	}
}

// TestFacadeCompleteRowsNegativeN checks a negative row count is an error
// naming n, through a plain model and through a gateway, instead of a panic.
func TestFacadeCompleteRowsNegativeN(t *testing.T) {
	f, err := smartfeat.ReadCSVString("City,Age\nSF,21\nLA,33\n")
	if err != nil {
		t.Fatal(err)
	}
	sim := smartfeat.NewGPT35Sim(1, 0)
	for _, m := range []smartfeat.FM{sim, smartfeat.NewGateway(sim, smartfeat.GatewayOptions{})} {
		vals, err := smartfeat.CompleteRows(context.Background(), m, f, "Population_Density", -1)
		if err == nil || vals != nil || !strings.Contains(err.Error(), "n = -1") {
			t.Fatalf("CompleteRows(n = -1) = (%v, %v), want an error naming n", vals, err)
		}
	}
}

func TestFacadeStatuses(t *testing.T) {
	all := []string{
		string(smartfeat.StatusAdded), string(smartfeat.StatusRowLevel),
		string(smartfeat.StatusRowLevelSkipped), string(smartfeat.StatusDataSource),
		string(smartfeat.StatusFailed), string(smartfeat.StatusFiltered),
	}
	if strings.Join(all, ",") == "" {
		t.Fatal("statuses must be exported")
	}
	if !smartfeat.AllOperators().Unary {
		t.Fatal("AllOperators should enable unary")
	}
}

// panickingFM panics on every completion, as a faulty FM client might.
type panickingFM struct{ smartfeat.FM }

func (panickingFM) Complete(context.Context, string) (string, error) {
	panic("fm client bug")
}

// TestFacadeRunContainsPanic checks that a panic in an FM's Complete comes
// back from Run and RunContext as an error that starts "panic:" and holds
// the panic value and the stack, instead of ending the caller's process.
func TestFacadeRunContainsPanic(t *testing.T) {
	f, err := smartfeat.ReadCSVString(facadeCSV)
	if err != nil {
		t.Fatal(err)
	}
	opts := smartfeat.Options{
		Target:      "Label",
		SelectorFM:  panickingFM{smartfeat.NewGPT4Sim(1, 0)},
		GeneratorFM: panickingFM{smartfeat.NewGPT35Sim(2, 0)},
	}
	runs := map[string]func() (*smartfeat.Result, error){
		"Run":        func() (*smartfeat.Result, error) { return smartfeat.Run(f, opts) },
		"RunContext": func() (*smartfeat.Result, error) { return smartfeat.RunContext(context.Background(), f, opts) },
	}
	for name, run := range runs {
		res, err := run()
		if res != nil || err == nil {
			t.Fatalf("%s = (%v, %v), want a nil result and the panic as an error", name, res, err)
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "panic: fm client bug\n") || !strings.Contains(msg, "panickingFM.Complete") {
			t.Fatalf("%s: error %q should start \"panic: fm client bug\" and carry the stack", name, msg)
		}
	}
}

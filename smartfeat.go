// Package smartfeat is the public API of the SMARTFEAT reproduction: an
// automated feature engineering tool that interacts with a (simulated)
// foundation model at the feature level — an operator selector proposes
// candidate features from the data agenda, a function generator compiles
// each candidate into an executable dataframe transformation, and a
// verification step filters low-quality results.
//
// Quickstart:
//
//	f, _ := smartfeat.ReadCSVString(csvText)
//	result, err := smartfeat.Run(f, smartfeat.Options{
//	        Target:      "Safe",
//	        Descriptions: map[string]string{"Age": "Age of the policyholder"},
//	        SelectorFM:  smartfeat.NewGPT4Sim(42, 0),
//	        GeneratorFM: smartfeat.NewGPT35Sim(43, 0),
//	})
//
// The result holds the augmented dataframe, a per-candidate report, and the
// foundation-model usage accounting. See examples/ for runnable programs and
// internal/experiments for the paper's full evaluation harness.
package smartfeat

import (
	"context"
	"io"

	"smartfeat/internal/core"
	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
	"smartfeat/internal/fm"
	"smartfeat/internal/fmgate"
)

// Frame is a columnar dataframe (see internal/dataframe for the full API).
type Frame = dataframe.Frame

// Series is a single typed column of a Frame.
type Series = dataframe.Series

// Options configures a SMARTFEAT run (see core.Options for field docs).
type Options = core.Options

// Result is a completed run: augmented frame, per-candidate reports,
// verification outcome and FM usage.
type Result = core.Result

// GeneratedFeature records one candidate's fate.
type GeneratedFeature = core.GeneratedFeature

// OperatorSet toggles operator families (unary/binary/high-order/extractor).
type OperatorSet = core.OperatorSet

// TransformSpec is the executable-transformation vocabulary the function
// generator emits.
type TransformSpec = core.TransformSpec

// FM is the foundation-model interface SMARTFEAT talks to.
type FM = fm.Model

// Usage is cumulative FM accounting (calls, tokens, simulated latency/cost).
type Usage = fm.Usage

// Dataset is one of the paper's evaluation datasets with its data card.
type Dataset = datasets.Dataset

// Candidate feature statuses.
const (
	StatusAdded           = core.StatusAdded
	StatusRowLevel        = core.StatusRowLevel
	StatusRowLevelSkipped = core.StatusRowLevelSkipped
	StatusDataSource      = core.StatusDataSource
	StatusFailed          = core.StatusFailed
	StatusFiltered        = core.StatusFiltered
)

// Gateway is the FM traffic layer: caching, in-flight deduplication,
// bounded-concurrency submission, retries and record/replay over any FM.
type Gateway = fmgate.Gateway

// GatewayOptions configures a Gateway.
type GatewayOptions = fmgate.Options

// NewGateway wraps an FM in a gateway; the result is itself an FM, so it
// plugs into Options.SelectorFM / Options.GeneratorFM directly.
func NewGateway(model FM, opts GatewayOptions) *Gateway {
	return fmgate.New(model, opts)
}

// Run executes the SMARTFEAT pipeline on a copy of the frame.
func Run(f *Frame, opts Options) (*Result, error) {
	return core.Run(f, opts)
}

// RunContext is Run with cancellation threaded through every FM call. On
// cancellation it returns the partial result (with usage accounting of the
// spend so far) alongside the context's error.
func RunContext(ctx context.Context, f *Frame, opts Options) (*Result, error) {
	return core.RunContext(ctx, f, opts)
}

// AllOperators enables every operator family.
func AllOperators() OperatorSet { return core.AllOperators() }

// NewGPT4Sim builds the simulated operator-selector model (the paper uses
// GPT-4 for the operator selector). errorRate injects malformed completions.
func NewGPT4Sim(seed int64, errorRate float64) FM {
	return fm.NewGPT4Sim(seed, errorRate)
}

// NewGPT35Sim builds the simulated function-generator model (GPT-3.5-turbo
// in the paper).
func NewGPT35Sim(seed int64, errorRate float64) FM {
	return fm.NewGPT35Sim(seed, errorRate)
}

// ReadCSV parses CSV with a header row into a Frame, inferring column types.
func ReadCSV(r io.Reader) (*Frame, error) { return dataframe.ReadCSV(r) }

// ReadCSVString parses CSV text into a Frame.
func ReadCSVString(s string) (*Frame, error) { return dataframe.ReadCSVString(s) }

// NewFrame returns an empty Frame.
func NewFrame() *Frame { return dataframe.New() }

// LoadDataset generates one of the paper's eight evaluation datasets
// ("Diabetes", "Heart", "Bank", "Adult", "Housing", "Lawschool",
// "West Nile Virus", "Tennis") with the given seed.
func LoadDataset(name string, seed int64) (*Dataset, error) {
	return datasets.Load(name, seed)
}

// DatasetNames lists the paper's datasets in Table 3 order.
func DatasetNames() []string { return datasets.Names() }

// CompleteRows performs row-level FM completions for the first n rows of the
// frame — the per-entry interaction style of the paper's Figure 1 that
// SMARTFEAT's feature-level design avoids. Exposed so the cost comparison is
// reproducible against the same accounting. When model is a *Gateway the
// rows are completed on as many workers as its concurrency bound admits
// upstream calls; any other model gets one worker, in row order. A
// negative n is an error.
func CompleteRows(ctx context.Context, model FM, f *Frame, feature string, n int) ([]float64, error) {
	return core.CompleteRows(ctx, model, f, feature, n)
}

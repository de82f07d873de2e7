package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"smartfeat/internal/core"
	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
	"smartfeat/internal/fm"
	"smartfeat/internal/fmgate"
)

// InteractionCost is one point of the Figure 1 comparison: what it costs to
// obtain a single new feature through row-level completions versus through
// SMARTFEAT's feature-level interaction, as a function of dataset size.
// The gateway columns report the same row-level workload routed through the
// fmgate completion cache and in-flight deduplication: duplicate rows stop
// being paid for twice, which is the gateway's dent in the paper's cost
// worst case before feature-level interaction removes it entirely.
type InteractionCost struct {
	Rows int
	// Row-level: one FM call per row (Figure 1, left).
	RowCalls   int
	RowTokens  int
	RowCostUSD float64
	RowLatency time.Duration
	// Row-level through the gateway: upstream calls actually paid for,
	// completions served from cache or shared in flight, and the cost after
	// those savings.
	GatewayUpstream  int64
	GatewayCacheHits int64
	GatewayInflight  int64
	GatewayCostUSD   float64
	// Feature-level: the whole SMARTFEAT pipeline (Figure 1, right).
	FeatureCalls   int
	FeatureTokens  int
	FeatureCostUSD float64
	FeatureLatency time.Duration
	FeaturesAdded  int
}

// Figure1Dataset is the dataset the Figure 1 cost comparison truncates (the
// largest in Table 3).
const Figure1Dataset = "Bank"

// Figure1Cell measures one dataset-size point of the Figure 1 comparison.
// Each point is self-contained — the row-level simulators are seeded by the
// row count and the SMARTFEAT gateways by cfg.Seed — so points compute
// identically whether run in a loop, in parallel grid cells, or resumed.
// Only the feature-level pipeline routes through the per-cell record/replay
// store; the raw row-level sweep is the *measured baseline* (its per-row
// traffic is exactly what the recording would eliminate).
func Figure1Cell(ctx context.Context, size int, cfg Config) (InteractionCost, error) {
	d, err := datasets.Load(Figure1Dataset, cfg.Seed)
	if err != nil {
		return InteractionCost{}, err
	}
	full := d.Frame.DropNA()
	rows := size
	if rows > full.Len() {
		rows = full.Len()
	}
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = i
	}
	sub := full.Take(idx)
	point := InteractionCost{Rows: rows}

	// Row-level: serialize every entry and ask for the masked value.
	rowModel := fm.NewGPT35Sim(cfg.Seed+int64(rows), 0)
	if _, err := core.CompleteRows(ctx, rowModel, sub, "Estimated_Subscription_Propensity", rows); err != nil {
		return InteractionCost{}, err
	}
	ru := rowModel.Usage()
	point.RowCalls = ru.Calls
	point.RowTokens = ru.PromptTokens + ru.CompletionTokens
	point.RowCostUSD = ru.SimCostUSD
	point.RowLatency = ru.SimLatency

	// The same workload through the gateway: cached, deduplicated,
	// concurrently submitted. Row completions are deterministic per row
	// content, so the values are identical — only the traffic shrinks.
	gw := fmgate.New(fm.NewGPT35Sim(cfg.Seed+int64(rows), 0), fmgate.Options{
		CacheSize:   1 << 16,
		Concurrency: 8,
	})
	if _, err := core.CompleteRows(ctx, gw, sub, "Estimated_Subscription_Propensity", rows); err != nil {
		return InteractionCost{}, err
	}
	gm := gw.Metrics()
	point.GatewayUpstream = gm.UpstreamCalls
	point.GatewayCacheHits = gm.CacheHits
	point.GatewayInflight = gm.InflightShares
	point.GatewayCostUSD = gw.Usage().SimCostUSD

	// Feature-level: the full SMARTFEAT pipeline on the same rows.
	opts, _, err := smartfeatOptions(d, cfg, core.AllOperators())
	if err != nil {
		return InteractionCost{}, err
	}
	res, err := core.RunContext(ctx, sub, opts)
	if err != nil {
		return InteractionCost{}, err
	}
	fu := res.SelectorUsage
	fu.Add(res.GeneratorUsage)
	point.FeatureCalls = fu.Calls
	point.FeatureTokens = fu.PromptTokens + fu.CompletionTokens
	point.FeatureCostUSD = fu.SimCostUSD
	point.FeatureLatency = fu.SimLatency
	point.FeaturesAdded = len(res.AddedColumns())
	return point, nil
}

// Figure1String renders the interaction-cost series.
func Figure1String(points []InteractionCost) string {
	var b strings.Builder
	b.WriteString("Figure 1: row-level vs feature-level FM interaction cost (simulated GPT pricing).\n")
	b.WriteString("Gateway columns: the row-level workload through the fmgate cache + concurrent submitter.\n")
	fmt.Fprintf(&b, "%8s | %10s %12s %12s %14s | %8s %9s %9s %10s | %10s %12s %12s %14s %9s\n",
		"rows", "row calls", "row tokens", "row $", "row latency",
		"upstream", "cache hit", "in-flight", "gateway $",
		"feat calls", "feat tokens", "feat $", "feat latency", "#features")
	for _, p := range points {
		fmt.Fprintf(&b, "%8d | %10d %12d %12.4f %14s | %8d %9d %9d %10.4f | %10d %12d %12.4f %14s %9d\n",
			p.Rows, p.RowCalls, p.RowTokens, p.RowCostUSD, p.RowLatency.Round(time.Second),
			p.GatewayUpstream, p.GatewayCacheHits, p.GatewayInflight, p.GatewayCostUSD,
			p.FeatureCalls, p.FeatureTokens, p.FeatureCostUSD, p.FeatureLatency.Round(time.Second), p.FeaturesAdded)
	}
	return b.String()
}

// Figure2Walkthrough reproduces the paper's Figure 2: the construction of
// Bucketized Age on the Table 1 insurance example, returning a rendered
// trace of the operator-selector and function-generator exchange.
func Figure2Walkthrough(ctx context.Context, cfg Config) (string, error) {
	f, err := dataframe.ReadCSVString(`Sex,Age,Age of car,Make,Claim in last 6 month,City,Safe
M,21,6,Honda,1,SF,0
F,35,2,Toyota,0,LA,1
M,42,8,Ford,0,SEA,1
F,22,14,Chevrolet,1,SF,0
M,45,3,BMW,0,SEA,1
F,56,5,Volkswagen,0,LA,1
`)
	if err != nil {
		return "", err
	}
	// The walkthrough's FMs are error-free and unwired: only the seed
	// carries over from cfg.
	router, err := SmartfeatRouter(Config{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	opts := core.Options{
		Target:            "Safe",
		TargetDescription: "Whether the policyholder is safe (1=yes, 0=no)",
		Descriptions: map[string]string{
			"Sex":                   "Sex of the policyholder",
			"Age":                   "Age of the policyholder in years",
			"Age of car":            "Age of the insured car in years",
			"Make":                  "Manufacturer of the car",
			"Claim in last 6 month": "Number of claims filed in the last 6 months",
			"City":                  "City of residence",
		},
		Model:       "Decision Tree",
		SelectorFM:  router.Gate(fmgate.RoleSelector),
		GeneratorFM: router.Gate(fmgate.RoleGenerator),
		Operators:   core.OperatorSet{Unary: true},
	}
	res, err := core.RunContext(ctx, f, opts)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 2 walkthrough: constructing Bucketized Age on the Table 1 example.\n")
	for _, g := range res.Features {
		fmt.Fprintf(&b, "candidate %-28s op=%-12s status=%-10s inputs=%v\n",
			g.Candidate.Name, g.Candidate.Operator, g.Status, g.Candidate.Inputs)
		if g.Spec != nil && g.Spec.Kind == core.KindBucketize {
			fmt.Fprintf(&b, "  boundaries: %v\n", g.Spec.Boundaries)
		}
	}
	if col := res.Frame.Column("Bucketize_Age"); col != nil {
		fmt.Fprintf(&b, "Bucketize_Age values: %v\n", col.Nums)
	}
	fmt.Fprintf(&b, "selector: %s\ngenerator: %s\n", res.SelectorUsage, res.GeneratorUsage)
	return b.String(), nil
}

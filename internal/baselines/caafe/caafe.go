// Package caafe reimplements the CAAFE baseline (§4.1): an FM-driven feature
// engineering loop without SMARTFEAT's operator selector. Each of its
// (default 10) iterations asks the FM for a data transformation — which, as
// the paper observes, are mainly combinations of numerical attributes — and
// retains the new feature only if it improves the downstream model's AUC on
// a validation split.
//
// Two behaviours of the reference tool are reproduced deliberately:
//
//  1. Generated code applies raw arithmetic. A divide whose denominator
//     contains zeros produces ±Inf (pandas semantics). CAAFE's internal
//     validation tolerates non-finite values (its default validator
//     normalises them), so such a feature can be retained — and then crashes
//     sklearn-style downstream models, which is exactly the paper's reported
//     CAAFE failure on Diabetes ("suggested divide-by-zero transformations
//     without handling the NAN values and caused the ML models to fail").
//
//  2. Validation trains the *downstream* model once per candidate. With a
//     DNN on large datasets this exceeds the evaluation's 60-minute budget —
//     the paper's reported CAAFE timeouts on Bank, Adult and Housing.
package caafe

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/expr"
	"smartfeat/internal/fm"
	"smartfeat/internal/metrics"
	"smartfeat/internal/ml"
	"smartfeat/internal/obs"
)

// ErrTimeout reports that validating with the downstream model would exceed
// the evaluation budget.
var ErrTimeout = errors.New("caafe: validation budget exceeded (timeout)")

// Config controls the loop. Start from DefaultConfig: Run fills no zero
// field.
type Config struct {
	// Iterations is the number of FM codegen rounds (paper: 10).
	Iterations int
	// MinImprovement is the validation-AUC gain required to retain a
	// feature.
	MinImprovement float64
	// ValidationRows caps the validation sample (CAAFE samples values).
	ValidationRows int
	// DNNBudgetRows: validating with a DNN on more rows than this trips the
	// 60-minute budget (20,000 in DefaultConfig — Bank/Adult/Housing exceed
	// it).
	DNNBudgetRows int
	// Seed drives the validation split.
	Seed int64
	// TrainRows restricts validation to these row indices (the tool never
	// sees held-out rows). Nil means all rows.
	TrainRows []int
}

// DefaultConfig mirrors the paper's CAAFE setup (GPT-4, 10 iterations).
func DefaultConfig() Config {
	return Config{Iterations: 10, MinImprovement: 0.0075, ValidationRows: 1200, DNNBudgetRows: 20000}
}

// validationRepeats is how many split seeds the per-candidate validation
// averages over; a single split is too noisy to gate retention.
const validationRepeats = 3

// Result reports a CAAFE run.
type Result struct {
	Frame      *dataframe.Frame
	Generated  int
	Retained   int
	NewColumns []string
	// HasNonFinite reports whether a retained feature contains ±Inf — the
	// condition under which downstream sklearn-style models will fail.
	HasNonFinite bool
	Usage        fm.Usage
	Elapsed      time.Duration
}

// Run executes the CAAFE loop for one downstream model. descriptions is the
// data card (CAAFE also consumes dataset context). The input frame is not
// mutated. The context cancels in-flight FM calls and stops the loop between
// iterations.
func Run(ctx context.Context, input *dataframe.Frame, target string, descriptions map[string]string, model fm.Model, downstream string, cfg Config) (*Result, error) {
	start := time.Now()
	if !input.Has(target) {
		return nil, fmt.Errorf("caafe: target %q not in frame", target)
	}
	if downstream == "DNN" && input.Len() > cfg.DNNBudgetRows {
		return nil, fmt.Errorf("%w: DNN validation over %d rows", ErrTimeout, input.Len())
	}
	model.ResetUsage()
	f := input.Clone()
	res := &Result{Frame: f}
	c := newCard(f, target, descriptions)

	// Validation sample (CAAFE samples the data it shows and validates on),
	// drawn from the training rows only.
	rows := cfg.TrainRows
	if rows == nil {
		rows = make([]int, f.Len())
		for i := range rows {
			rows[i] = i
		}
	}
	if len(rows) > cfg.ValidationRows {
		rows = rows[:cfg.ValidationRows]
	}
	labels, err := f.IntLabels(target)
	if err != nil {
		return nil, err
	}

	current := numericFeatureNames(f, target)
	tried := make(map[string]bool)
	attempts := 0
	for iter := 0; iter < cfg.Iterations && attempts < 3*cfg.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		attempts++
		// Each attempt is one caafe.iter span (generation + validation); the
		// closure gives the span a single End point across the many early
		// exits, with the outcome recorded as an attribute.
		repeat := func() bool {
			_, span := obs.StartSpan(ctx, "caafe.iter",
				obs.Int("iter", iter), obs.String("downstream", downstream))
			outcome := "retained"
			defer func() {
				span.SetAttr("outcome", outcome)
				span.End()
			}()
			// CAAFE's codegen produces both pairwise combinations and
			// multi-column composite expressions; roughly a third of its
			// suggestions are composites.
			var name string
			var vals []float64
			var serr error
			if iter%3 == 2 {
				name, vals, serr = sampleComposite(ctx, c, model)
			} else {
				name, vals, serr = samplePairwise(ctx, c, model)
			}
			if serr != nil || name == "" {
				outcome = "generation-failed"
				return false // a failed generation consumes the iteration
			}
			if tried[name] || f.Has(name) {
				// CAAFE's prompt lists prior features, so the FM rarely
				// repeats itself; a repeat costs a retry, not an iteration.
				outcome = "repeat"
				return true
			}
			tried[name] = true
			res.Generated++
			baseAUC, verr := meanValidationAUC(f, current, labels, downstream, rows, cfg.Seed+int64(iter))
			if verr != nil {
				outcome = "validation-failed"
				return false
			}
			if aerr := c.add(name, vals); aerr != nil {
				outcome = "validation-failed"
				return false
			}
			withAUC, verr := meanValidationAUC(f, append(append([]string(nil), current...), name), labels, downstream, rows, cfg.Seed+int64(iter))
			if verr != nil || withAUC < baseAUC+cfg.MinImprovement {
				c.drop(name)
				outcome = "rejected"
				return false
			}
			current = append(current, name)
			res.Retained++
			res.NewColumns = append(res.NewColumns, name)
			for _, v := range vals {
				if math.IsInf(v, 0) {
					res.HasNonFinite = true
					break
				}
			}
			return false
		}()
		if repeat {
			iter--
		}
	}
	res.Usage = model.Usage()
	res.Elapsed = time.Since(start)
	return res, nil
}

// candidate is one FM-proposed numeric combination.
type candidate struct {
	op          string
	left, right string
	name        string
}

// compute evaluates the combination with raw (pandas-like) arithmetic:
// divide-by-zero produces ±Inf, 0/0 produces NaN — deliberately unguarded.
func (c candidate) compute(f *dataframe.Frame) []float64 {
	a, b := f.Column(c.left), f.Column(c.right)
	out := make([]float64, f.Len())
	for i := range out {
		if a.IsNull(i) || b.IsNull(i) {
			out[i] = math.NaN()
			continue
		}
		x, y := a.Nums[i], b.Nums[i]
		switch c.op {
		case "add":
			out[i] = x + y
		case "subtract":
			out[i] = x - y
		case "multiply":
			out[i] = x * y
		case "divide":
			out[i] = x / y // no zero guard: ±Inf / NaN flow through
		}
	}
	return out
}

// samplePairwise asks the FM for one pairwise numeric combination and
// evaluates it with CAAFE's raw (unguarded) arithmetic.
func samplePairwise(ctx context.Context, c *card, model fm.Model) (string, []float64, error) {
	resp, err := model.Complete(ctx, c.prompt(fm.TaskSampleBinary))
	if err != nil {
		return "", nil, err
	}
	cand, err := parseCandidate(resp, c.f, c.target)
	if err != nil {
		return "", nil, err
	}
	return cand.name, cand.compute(c.f), nil
}

// sampleComposite asks the FM for a multi-column composite expression (the
// kind of pandas one-liner CAAFE's codegen produces for index features) and
// evaluates it.
func sampleComposite(ctx context.Context, c *card, model fm.Model) (string, []float64, error) {
	resp, err := model.Complete(ctx, c.prompt(fm.TaskSampleExtractor))
	if err != nil {
		return "", nil, err
	}
	var sample struct {
		Kind        string   `json:"kind"`
		Name        string   `json:"name"`
		Description string   `json:"description"`
		Columns     []string `json:"columns"`
	}
	startIdx := strings.IndexByte(resp, '{')
	endIdx := strings.LastIndexByte(resp, '}')
	if startIdx < 0 || endIdx <= startIdx {
		return "", nil, fmt.Errorf("caafe: no JSON in extractor response")
	}
	if err := json.Unmarshal([]byte(resp[startIdx:endIdx+1]), &sample); err != nil {
		return "", nil, err
	}
	if sample.Kind != "composite" || len(sample.Columns) == 0 {
		return "", nil, fmt.Errorf("caafe: unsupported extractor kind %q", sample.Kind)
	}
	// One more completion turns the description into a concrete formula.
	fnPrompt := c.prompt(fm.TaskGenerateFunction) +
		fmt.Sprintf("New feature: %s\nRelevant columns: %s\nOperator: extractor\nDescription: %s\n",
			sample.Name, strings.Join(sample.Columns, ", "), sample.Description)
	fnResp, err := model.Complete(ctx, fnPrompt)
	if err != nil {
		return "", nil, err
	}
	var spec struct {
		Kind string `json:"kind"`
		Expr string `json:"expr"`
	}
	startIdx = strings.IndexByte(fnResp, '{')
	endIdx = strings.LastIndexByte(fnResp, '}')
	if startIdx < 0 || endIdx <= startIdx {
		return "", nil, fmt.Errorf("caafe: no JSON in function response")
	}
	if err := json.Unmarshal([]byte(fnResp[startIdx:endIdx+1]), &spec); err != nil {
		return "", nil, err
	}
	if spec.Kind != "expr" || spec.Expr == "" {
		return "", nil, fmt.Errorf("caafe: unsupported function kind %q", spec.Kind)
	}
	e, err := expr.Compile(spec.Expr)
	if err != nil {
		return "", nil, err
	}
	cols := make(map[string][]float64)
	for _, v := range e.Vars() {
		col := c.f.Column(v)
		if col == nil || col.Kind != dataframe.Numeric || v == c.target {
			return "", nil, fmt.Errorf("caafe: expression references invalid column %q", v)
		}
		cols[v] = col.Nums
	}
	vals, err := e.EvalRows(cols)
	if err != nil {
		return "", nil, err
	}
	if len(vals) != c.f.Len() {
		return "", nil, fmt.Errorf("caafe: constant expression")
	}
	return sanitize(sample.Name), vals, nil
}

// card is a session's frame together with its data card: the prompt line
// of every non-target column, taken when the column enters the frame. Every
// prompt repeats the whole card, and rescanning each column's statistics per
// prompt would cost far more than the prompt itself. The snapshot stays
// exact because a session only adds and drops columns, never edits one in
// place.
type card struct {
	f            *dataframe.Frame
	target       string
	descriptions map[string]string
	lines        map[string]string // column → rendered card line
}

func newCard(f *dataframe.Frame, target string, descriptions map[string]string) *card {
	c := &card{f: f, target: target, descriptions: descriptions, lines: make(map[string]string)}
	for _, name := range f.Names() {
		if name != target {
			c.enter(name)
		}
	}
	return c
}

func (c *card) enter(name string) {
	c.lines[name] = fm.FormatAgendaColumn(fm.SeriesColumn(c.f.Column(name), c.descriptions[name]))
}

// add appends a numeric column to the frame and snapshots its line.
func (c *card) add(name string, vals []float64) error {
	if err := c.f.AddNumeric(name, vals); err != nil {
		return err
	}
	c.enter(name)
	return nil
}

// drop removes a column from the frame and forgets its line.
func (c *card) drop(name string) {
	c.f.Drop(name)
	delete(c.lines, name)
}

// prompt renders CAAFE's context prompt, listing the card in frame order.
// Without an operator selector the request is a generic "suggest a
// transformation", which the FM answers with numeric combinations.
func (c *card) prompt(task string) string {
	var b strings.Builder
	b.WriteString("You are assisting with semi-automated data science feature engineering.\n")
	fmt.Fprintf(&b, "Task: %s\n", task)
	b.WriteString("Dataset description:\n")
	for _, name := range c.f.Names() {
		if name == c.target {
			continue
		}
		b.WriteString(c.lines[name])
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "Prediction class: %s\n", c.target)
	b.WriteString("Suggest one new feature as pandas code combining existing numeric columns. " +
		"Respond with a single JSON object: {\"op\": add|subtract|multiply|divide, \"left\": col, \"right\": col, \"name\": feature_name}.\n")
	return b.String()
}

// parseCandidate reads the FM's JSON answer.
func parseCandidate(resp string, f *dataframe.Frame, target string) (candidate, error) {
	var c candidate
	var sample struct {
		Op    string `json:"op"`
		Left  string `json:"left"`
		Right string `json:"right"`
		Name  string `json:"name"`
	}
	startIdx := strings.IndexByte(resp, '{')
	endIdx := strings.LastIndexByte(resp, '}')
	if startIdx < 0 || endIdx <= startIdx {
		return c, fmt.Errorf("caafe: no JSON in response")
	}
	if err := jsonUnmarshal(resp[startIdx:endIdx+1], &sample); err != nil {
		return c, err
	}
	switch sample.Op {
	case "add", "subtract", "multiply", "divide":
	default:
		return c, fmt.Errorf("caafe: invalid op %q", sample.Op)
	}
	for _, col := range []string{sample.Left, sample.Right} {
		cc := f.Column(col)
		if cc == nil || cc.Kind != dataframe.Numeric || col == target {
			return c, fmt.Errorf("caafe: invalid column %q", col)
		}
	}
	name := sample.Name
	if name == "" {
		name = fmt.Sprintf("%s_%s_%s", sample.Left, sample.Op, sample.Right)
	}
	return candidate{op: sample.Op, left: sample.Left, right: sample.Right, name: sanitize(name)}, nil
}

// meanValidationAUC averages validationAUC over several split seeds; a
// single split's AUC is too noisy to gate feature retention on. The sampled
// rows are gathered and cleaned once, and every repeat splits that sample.
func meanValidationAUC(f *dataframe.Frame, features []string, allLabels []int, downstream string, rows []int, seed int64) (float64, error) {
	if len(features) == 0 {
		return 0, fmt.Errorf("caafe: no features")
	}
	g, err := f.Gatherer(features)
	if err != nil {
		return 0, err
	}
	X := g.Gather(rows, nil)
	labels := make([]int, len(rows))
	for k, i := range rows {
		labels[k] = allLabels[i]
	}
	// CAAFE's tolerant handling of non-finite values (they are treated as
	// missing, as its internal validator effectively does): ±Inf → NaN →
	// mean imputation inside the pipeline.
	for j := 0; j < X.Cols(); j++ {
		col := X.Col(j)
		for i, v := range col {
			if math.IsInf(v, 0) {
				col[i] = math.NaN()
			}
		}
	}
	sum := 0.0
	var buf ml.Matrix
	for r := 0; r < validationRepeats; r++ {
		v, err := validationAUC(X, labels, downstream, seed+int64(r)*101, &buf)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / validationRepeats, nil
}

// validationAUC trains the downstream model on one seeded split of the
// validation sample and returns its AUC on the held-out part, which the
// pipeline preprocesses into buf.
func validationAUC(X *ml.Matrix, labels []int, downstream string, seed int64, buf *ml.Matrix) (float64, error) {
	train, test := metrics.TrainTestSplit(X.Rows(), 0.25, seed)
	Xtr, ytr := X.TakeRows(train), metrics.TakeLabels(labels, train)
	Xte, yte := X.TakeRows(test), metrics.TakeLabels(labels, test)
	clf, err := validationModel(downstream, seed)
	if err != nil {
		return 0, err
	}
	pipe := ml.NewPipeline(clf)
	if err := pipe.Fit(Xtr, ytr); err != nil {
		return 0, err
	}
	return metrics.AUC(yte, pipe.PredictProba(Xte, buf))
}

// validationModel builds a scaled-down downstream model for per-candidate
// validation (CAAFE validates with the actual model family).
func validationModel(downstream string, seed int64) (ml.Classifier, error) {
	switch downstream {
	case "RF":
		return ml.NewRandomForest(15, seed), nil
	case "ET":
		return ml.NewExtraTrees(15, seed), nil
	case "DNN":
		m := ml.NewMLP(seed)
		m.Epochs = 8
		return m, nil
	default:
		return ml.New(downstream, seed)
	}
}

func numericFeatureNames(f *dataframe.Frame, target string) []string {
	var out []string
	for _, n := range f.Names() {
		if n != target && f.Column(n).Kind == dataframe.Numeric {
			out = append(out, n)
		}
	}
	return out
}

func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

func jsonUnmarshal(s string, v any) error {
	return json.Unmarshal([]byte(s), v)
}

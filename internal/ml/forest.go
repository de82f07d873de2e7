package ml

import (
	"context"
	"math"
	"math/rand"

	"smartfeat/internal/par"
)

// Forest is an ensemble of CART trees. With Bootstrap=true and greedy splits
// it is a random forest; with Bootstrap=false and random splits it is
// extra-trees (sklearn's ExtraTreesClassifier).
type Forest struct {
	// NumTrees is the ensemble size.
	NumTrees int
	// Bootstrap resamples the training set per tree.
	Bootstrap bool
	// RandomSplits selects the extra-trees split rule.
	RandomSplits bool
	// Histogram enables histogram-binned greedy split finding: columns
	// are bucketed once per forest into ≤MaxBins quantile bins shared by
	// every tree, and nodes scan per-bin class counts instead of sorting
	// (see histogram.go). NewRandomForest and NewExtraTrees enable it; it
	// is a no-op for the RandomSplits rule, which never sorts.
	Histogram bool
	// MaxBins caps per-column histogram bins (0 or out of [2,256] → 256).
	MaxBins int
	// HistMinNode is the node size below which histogram split finding
	// falls back to the exact sort-scan kernel (0 → 128).
	HistMinNode int
	// Seed drives all per-tree randomness.
	Seed int64

	name   string
	trees  []*Tree
	numFea int
	fitted bool
}

// NewRandomForest builds a random forest configuration ("RF").
func NewRandomForest(numTrees int, seed int64) *Forest {
	return &Forest{
		NumTrees:  numTrees,
		Bootstrap: true,
		Histogram: true,
		Seed:      seed,
		name:      "RF",
	}
}

// NewExtraTrees builds an extra-trees configuration ("ET").
func NewExtraTrees(numTrees int, seed int64) *Forest {
	return &Forest{
		NumTrees:     numTrees,
		RandomSplits: true,
		Histogram:    true,
		Seed:         seed,
		name:         "ET",
	}
}

// Name implements Classifier.
func (f *Forest) Name() string {
	if f.name == "" {
		return "Forest"
	}
	return f.name
}

// Fit implements Classifier. Trees are trained in parallel. Bootstrap trees
// share the columnar matrix and train over a resampled row-index set — no
// per-tree copy of the data. Non-bootstrap forests (extra-trees) train every
// tree on the same full index set, so they additionally share a lazily-built
// per-column presort cache: each tree's root split reads the one sorted
// order instead of re-deriving it per tree.
func (f *Forest) Fit(X *Matrix, y []int) error {
	if err := validate(X, y); err != nil {
		return err
	}
	var presort *forestPresort
	if !f.Bootstrap && !f.histogramSplits() {
		presort = newForestPresort(X, y)
	}
	f.fit(X, y, presort)
	return nil
}

// histogramSplits reports whether split finding is histogram-binned: the
// greedy rule with Histogram on.
func (f *Forest) histogramSplits() bool { return f.Histogram && !f.RandomSplits }

// fit trains the trees on validated inputs. presort is the shared root-split
// cache of a non-bootstrap forest, nil for the per-tree reference path that
// the equivalence tests pin it against.
func (f *Forest) fit(X *Matrix, y []int, presort *forestPresort) {
	if f.NumTrees <= 0 {
		f.NumTrees = 40
	}
	d := X.Cols()
	f.numFea = d
	maxFeatures := int(math.Ceil(math.Sqrt(float64(d))))
	f.trees = make([]*Tree, f.NumTrees)
	rng := rand.New(rand.NewSource(f.Seed))
	seeds := make([]int64, f.NumTrees)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	// Histogram-binned greedy forests bucket each column once, shared by
	// every tree (bins depend only on the full training column, so they
	// are valid for bootstrap resamples too); the exact greedy kernel
	// instead shares root-split sorted orders on non-bootstrap forests.
	histOn := f.histogramSplits()
	var bins *binSet
	if histOn {
		bins = newBinSet(X, y, f.MaxBins)
	}
	// One histogram arena per worker: the trees a worker fits reuse its
	// node-histogram scratch in turn.
	arenas := make([]*histArena, par.Workers(0, f.NumTrees))
	par.Run(context.Background(), 0, f.NumTrees, func(_ context.Context, w, ti int) error {
		if histOn && arenas[w] == nil {
			arenas[w] = &histArena{}
		}
		tree := NewTree(TreeConfig{
			MaxFeatures:  maxFeatures,
			RandomSplits: f.RandomSplits,
			Histogram:    f.Histogram,
			MaxBins:      f.MaxBins,
			HistMinNode:  f.HistMinNode,
			Seed:         seeds[ti],
		})
		tree.presort = presort
		tree.bins = bins
		tree.hist = arenas[w]
		tree.sharedRoot = !f.Bootstrap
		var rows []int
		if f.Bootstrap {
			sampleRng := rand.New(rand.NewSource(seeds[ti] ^ 0x5f5f5f5f))
			rows = bootstrapSample(sampleRng, X.Rows())
		} else {
			rows = make([]int, X.Rows())
			for i := range rows {
				rows[i] = i
			}
		}
		tree.fitRows(X, y, rows)
		f.trees[ti] = tree
		return nil
	})
	f.fitted = true
}

// PredictProba implements Classifier: the mean of per-tree leaf frequencies.
// Each tree's leaf probability is added straight into out, tree by tree,
// so a row sums its trees in order without a slice per tree.
func (f *Forest) PredictProba(X *Matrix) []float64 {
	out := make([]float64, X.Rows())
	if !f.fitted {
		return out
	}
	for _, t := range f.trees {
		if !t.fitted || len(t.nodes) == 0 {
			continue // Tree.PredictProba's zeros add nothing
		}
		for i := range out {
			out[i] += t.predictRow(X, i)
		}
	}
	for i := range out {
		out[i] /= float64(len(f.trees))
	}
	return out
}

// Importances averages normalized Gini importances over trees — the
// tree-based feature importance used by Table 6's FI@10 metric.
func (f *Forest) Importances() []float64 {
	out := make([]float64, f.numFea)
	if !f.fitted {
		return out
	}
	for _, t := range f.trees {
		imp := t.Importances()
		for j, v := range imp {
			out[j] += v
		}
	}
	total := 0.0
	for _, v := range out {
		total += v
	}
	if total > 0 {
		for j := range out {
			out[j] /= total
		}
	}
	return out
}

package ml

import (
	"math"
	"math/rand"
)

// TreeConfig controls CART growth.
type TreeConfig struct {
	// MaxDepth bounds tree depth (0 means the practical default of 12).
	MaxDepth int
	// MinSamplesLeaf is the smallest admissible leaf (0 means 1).
	MinSamplesLeaf int
	// MaxFeatures is how many features to consider per split
	// (0 means all; forests set √d).
	MaxFeatures int
	// RandomSplits picks one uniform random threshold per feature instead of
	// scanning all cut points — the extra-trees split rule.
	RandomSplits bool
	// Histogram enables histogram-binned greedy split finding (see
	// histogram.go): bucket each column once into ≤MaxBins quantile bins
	// and scan per-bin class counts per node instead of sorting per node.
	// NewRandomForest and NewExtraTrees enable it by default; it is a
	// no-op for RandomSplits trees, whose split rule never sorts.
	Histogram bool
	// MaxBins caps per-column histogram bins (0 or out of [2,256] → 256).
	MaxBins int
	// HistMinNode is the node size below which histogram split finding
	// falls back to the exact sort-scan kernel (0 → 128).
	HistMinNode int
	// Seed drives feature subsampling and random thresholds.
	Seed int64
}

type treeNode struct {
	feature     int
	thresh      float64
	left, right int     // children indices; -1 for leaves
	prob        float64 // P(y=1) among training rows at this node
}

// Tree is a CART binary classification tree using Gini impurity. Split
// finding runs over the columnar Matrix: per candidate feature the node's
// (value, label) pairs are gathered from the contiguous column into reusable
// scratch buffers and sorted with a specialized pair sort, so the inner loop
// is a linear scan over flat float64s instead of a closure-driven
// sort.Slice over row-major indices.
type Tree struct {
	cfg        TreeConfig
	nodes      []treeNode
	importance []float64
	rng        *rand.Rand
	fitted     bool

	// presort, when set by a non-bootstrap forest, shares per-column sorted
	// orders across the ensemble; nodes covering the full training set (the
	// root) use it instead of re-sorting.
	presort *forestPresort

	// bins, when histogram splits are enabled, holds the per-column bin
	// codes (built per fit, or shared across a forest's trees). sharedRoot
	// marks that this tree trains on the full un-resampled row set, so its
	// root can copy the precomputed full-set histograms. hist is the
	// per-worker depth-indexed histogram arena (see histogram.go); all
	// three are released when the fit completes.
	bins       *binSet
	sharedRoot bool
	hist       *histArena

	// Per-fit scratch, reused across nodes to keep allocs flat.
	scratchVals  []float64
	scratchLabs  []int8
	scratchIdx   []int
	scratchFeats []int // candidateFeatures' result
	prefixBuf    []int32
}

// NewTree returns a tree with the given configuration.
func NewTree(cfg TreeConfig) *Tree {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 12
	}
	if cfg.MinSamplesLeaf <= 0 {
		cfg.MinSamplesLeaf = 1
	}
	return &Tree{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements Classifier.
func (t *Tree) Name() string { return "Tree" }

// Fit implements Classifier.
func (t *Tree) Fit(X *Matrix, y []int) error {
	if err := validate(X, y); err != nil {
		return err
	}
	if t.cfg.Histogram && !t.cfg.RandomSplits {
		t.bins = newBinSet(X, y, t.cfg.MaxBins)
		t.sharedRoot = true
		t.hist = &histArena{}
	}
	idx := make([]int, X.Rows())
	for i := range idx {
		idx[i] = i
	}
	t.fitRows(X, y, idx)
	return nil
}

// fitRows grows the tree over the given training rows of X (rows may repeat,
// as with a bootstrap sample). idx is consumed: it is partitioned in place.
// When histogram splits are enabled the caller (Fit, or a forest sharing
// one binSet and per-worker arena across trees) populates t.bins/t.hist
// first; both references are dropped on return — prediction only walks the
// node array.
func (t *Tree) fitRows(X *Matrix, y []int, idx []int) {
	t.nodes = t.nodes[:0]
	t.importance = make([]float64, X.Cols())
	if cap(t.scratchVals) < len(idx) {
		t.scratchVals = make([]float64, len(idx))
		t.scratchLabs = make([]int8, len(idx))
		t.scratchIdx = make([]int, len(idx))
	}
	t.build(X, y, idx, 0, 0, 0)
	t.fitted = true
	t.bins = nil
	t.hist = nil
}

// gini computes Gini impurity from positive count and total.
func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// build grows the subtree over idx and returns its node index. idx is
// partitioned in place (stably) before recursing. parentFill and sibFill
// carry the histogram-arena fill ids of this node's parent and left
// sibling (0 when absent or stale), enabling the subtraction trick; they
// are unused on the exact path.
func (t *Tree) build(X *Matrix, y []int, idx []int, depth int, parentFill, sibFill int64) int {
	pos := 0
	for _, i := range idx {
		pos += y[i]
	}
	node := treeNode{left: -1, right: -1, prob: float64(pos) / float64(len(idx))}
	self := len(t.nodes)
	t.nodes = append(t.nodes, node)
	if depth >= t.cfg.MaxDepth || pos == 0 || pos == len(idx) || len(idx) < 2*t.cfg.MinSamplesLeaf {
		return self
	}
	feat, thresh, gain, selfFill := t.bestSplit(X, y, idx, depth, pos, parentFill, sibFill)
	if feat < 0 || gain <= 1e-12 {
		return self
	}
	// Stable in-place partition on the winning column, preserving idx order
	// on both sides (matches the row-major implementation's append order).
	col := X.Col(feat)
	scratch := t.scratchIdx[:0]
	nl := 0
	for _, i := range idx {
		if col[i] <= thresh {
			idx[nl] = i
			nl++
		} else {
			scratch = append(scratch, i)
		}
	}
	copy(idx[nl:], scratch)
	if nl < t.cfg.MinSamplesLeaf || len(idx)-nl < t.cfg.MinSamplesLeaf {
		return self
	}
	t.importance[feat] += float64(len(idx)) * gain
	// The left child is built from its rows; if it fills its histogram
	// level the right child can derive its own histograms as
	// parent − left-sibling. Fill ids distinguish a level the left child
	// actually wrote from stale contents left by an earlier subtree.
	leftFillBefore := t.levelFill(depth + 1)
	l := t.build(X, y, idx[:nl], depth+1, selfFill, 0)
	var sib int64
	if after := t.levelFill(depth + 1); after != leftFillBefore {
		sib = after
	}
	r := t.build(X, y, idx[nl:], depth+1, selfFill, sib)
	t.nodes[self].feature = feat
	t.nodes[self].thresh = thresh
	t.nodes[self].left = l
	t.nodes[self].right = r
	return self
}

// bestSplit searches candidate features for the split with the largest Gini
// decrease, routing to the histogram kernel when enabled and to the exact
// sort-scan otherwise (always for the random-split rule, and for nodes
// below the histogram fallback threshold). The fourth return is the
// histogram-arena fill id this node wrote (0 on the exact path). Returns
// feature -1 when no admissible split exists.
func (t *Tree) bestSplit(X *Matrix, y []int, idx []int, depth, pos int, parentFill, sibFill int64) (int, float64, float64, int64) {
	if t.bins == nil || t.cfg.RandomSplits || len(idx) < t.histMinNode() {
		f, thresh, gain := t.bestSplitExact(X, y, idx, pos)
		return f, thresh, gain, 0
	}
	return t.bestSplitHist(X, y, idx, depth, pos, parentFill, sibFill)
}

// bestSplitExact is the sort-scan split search: per candidate feature the
// node's (value, label) pairs are gathered and sorted, then every distinct-
// value boundary is a candidate cut. Returns (-1, 0, 0) when no admissible
// split exists.
func (t *Tree) bestSplitExact(X *Matrix, y []int, idx []int, pos int) (int, float64, float64) {
	feats := t.candidateFeatures(X.Cols())
	n := len(idx)
	parent := gini(pos, n)
	bestFeat, bestThresh, bestGain := -1, 0.0, 0.0
	// A node covering the whole (non-bootstrap) training set can read the
	// forest-shared presorted order instead of re-deriving it; the cut
	// points, counts and therefore gains are identical because prefix label
	// counts at distinct-value boundaries do not depend on tie ordering.
	shared := t.presort != nil && n == t.presort.n
	if t.cfg.RandomSplits {
		for _, f := range feats {
			var lo, hi float64
			var pc *presortedCol
			if shared {
				pc = t.presort.column(f)
				lo, hi = pc.vals[0], pc.vals[n-1]
			} else {
				col := X.Col(f)
				lo, hi = math.Inf(1), math.Inf(-1)
				for _, i := range idx {
					v := col[i]
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
			}
			if hi <= lo {
				continue
			}
			thresh := lo + t.rng.Float64()*(hi-lo)
			var ln, lp int
			if shared {
				// The rows with value <= thresh are exactly the ln smallest
				// of the shared order: a binary search and a prefix lookup
				// replace the O(n) counting pass.
				ln = upperBound(pc.vals, thresh)
				lp = int(pc.prefix[ln])
			} else {
				col := X.Col(f)
				for _, i := range idx {
					if col[i] <= thresh {
						ln++
						lp += y[i]
					}
				}
			}
			rn, rp := n-ln, pos-lp
			if ln < t.cfg.MinSamplesLeaf || rn < t.cfg.MinSamplesLeaf {
				continue
			}
			gain := parent - (float64(ln)*gini(lp, ln)+float64(rn)*gini(rp, rn))/float64(n)
			if gain > bestGain {
				bestFeat, bestThresh, bestGain = f, thresh, gain
			}
		}
		return bestFeat, bestThresh, bestGain
	}
	for _, f := range feats {
		vals := t.scratchVals[:n]
		var prefix []int32
		if shared {
			pc := t.presort.column(f)
			vals, prefix = pc.vals, pc.prefix
		} else {
			labs := t.scratchLabs[:n]
			col := X.Col(f)
			for k, i := range idx {
				vals[k] = col[i]
				labs[k] = int8(y[i])
			}
			sortPairs(vals, labs)
			prefix = t.scratchPrefix(labs)
		}
		for k := 0; k < n-1; k++ {
			// Only cut between distinct values.
			if vals[k+1] == vals[k] {
				continue
			}
			ln, lp := k+1, int(prefix[k+1])
			rn, rp := n-ln, pos-lp
			if ln < t.cfg.MinSamplesLeaf || rn < t.cfg.MinSamplesLeaf {
				continue
			}
			gain := parent - (float64(ln)*gini(lp, ln)+float64(rn)*gini(rp, rn))/float64(n)
			if gain > bestGain {
				bestFeat, bestGain = f, gain
				bestThresh = (vals[k] + vals[k+1]) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestGain
}

// scratchPrefix fills the reusable prefix-positive-count buffer for the
// node-local sorted labels (prefix[k] = positives among the k smallest).
func (t *Tree) scratchPrefix(labs []int8) []int32 {
	if cap(t.prefixBuf) < len(labs)+1 {
		t.prefixBuf = make([]int32, len(labs)+1)
	}
	prefix := t.prefixBuf[:len(labs)+1]
	prefix[0] = 0
	for i, l := range labs {
		prefix[i+1] = prefix[i] + int32(l)
	}
	return prefix
}

// candidateFeatures returns the feature subset considered at a node, in
// the tree's scratch slice: the caller is done with it before the next
// node asks. A subset is the head of a permutation drawn with
// math/rand.Perm's own loop, so the RNG stream, and every split, is what
// t.rng.Perm(d) gives.
func (t *Tree) candidateFeatures(d int) []int {
	if cap(t.scratchFeats) < d {
		t.scratchFeats = make([]int, d)
	}
	m := t.scratchFeats[:d]
	if t.cfg.MaxFeatures <= 0 || t.cfg.MaxFeatures >= d {
		for i := range m {
			m[i] = i
		}
		return m
	}
	for i := 0; i < d; i++ {
		j := t.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m[:t.cfg.MaxFeatures]
}

// PredictProba implements Classifier.
func (t *Tree) PredictProba(X *Matrix) []float64 {
	out := make([]float64, X.Rows())
	if !t.fitted || len(t.nodes) == 0 {
		return out
	}
	for i := range out {
		out[i] = t.predictRow(X, i)
	}
	return out
}

func (t *Tree) predictRow(X *Matrix, i int) float64 {
	n := 0
	for {
		node := t.nodes[n]
		if node.left < 0 {
			return node.prob
		}
		if X.At(i, node.feature) <= node.thresh {
			n = node.left
		} else {
			n = node.right
		}
	}
}

// Importances returns normalized Gini importance per feature (sums to 1 when
// any split occurred) — the "FI" metric of Table 6.
func (t *Tree) Importances() []float64 {
	out := append([]float64(nil), t.importance...)
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

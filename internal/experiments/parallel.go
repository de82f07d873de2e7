package experiments

import "slices"

// dnnFirst returns the indices of models with the DNN's first: its fit is
// the longest, so on a bounded pool it starts while the cheaper fits share
// the other workers instead of finishing alone at the end. The rest keep
// their order. Every model writes its own slot, so the order moves
// wall-clock only.
func dnnFirst(models []string) []int {
	order := make([]int, 0, len(models))
	for _, dnn := range []bool{true, false} {
		for i, m := range models {
			if (m == "DNN") == dnn {
				order = append(order, i)
			}
		}
	}
	return order
}

// ExpensiveFirst stably reorders idx so the costliest cells start first:
// CAAFE cells (their validation retrains the downstream model per
// candidate), then SMARTFEAT cells, then everything else, each group in its
// original order. method maps an index to its cell's method. On a bounded
// pool this starts the longest serial chains while the cheap cells fill the
// other workers, instead of leaving one worker to finish them alone at the
// end. Cells are seeded per cell, so the order moves wall-clock only.
func ExpensiveFirst(idx []int, method func(int) string) {
	rank := func(i int) int {
		switch method(i) {
		case MethodCAAFE:
			return 0
		case MethodSmartfeat:
			return 1
		}
		return 2
	}
	slices.SortStableFunc(idx, func(a, b int) int { return rank(a) - rank(b) })
}

package datasets

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
)

// synth wraps a seeded RNG with the sampling helpers the generators share.
type synth struct {
	rng *rand.Rand
}

func newSynth(seed int64) *synth {
	return &synth{rng: rand.New(rand.NewSource(seed))}
}

// normal draws N(mu, sd).
func (s *synth) normal(mu, sd float64) float64 {
	return mu + sd*s.rng.NormFloat64()
}

// uniform draws U[lo, hi).
func (s *synth) uniform(lo, hi float64) float64 {
	return lo + s.rng.Float64()*(hi-lo)
}

// lognormal draws exp(N(mu, sd)).
func (s *synth) lognormal(mu, sd float64) float64 {
	return math.Exp(s.normal(mu, sd))
}

// poissonish draws a non-negative integer with the given mean via a clipped
// rounded normal — cheap and close enough for feature synthesis.
func (s *synth) poissonish(mean float64) float64 {
	v := math.Round(s.normal(mean, math.Sqrt(mean+0.5)))
	if v < 0 {
		v = 0
	}
	return v
}

// choice draws the index of one of n levels uniformly: a code for
// dataframe.Frame.AddCodes.
func (s *synth) choice(n int) uint32 {
	return uint32(s.rng.Intn(n))
}

// weightedChoice draws a level index with the given weights.
func (s *synth) weightedChoice(weights []float64) uint32 {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	r := s.rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return uint32(i)
		}
	}
	return uint32(len(weights) - 1)
}

// groupEffects assigns each of the distinct levels a latent effect
// N(0, sd), drawn in sorted level order so that it depends on the seed
// alone, and returns them by level index. Used to plant group-level signal
// that only group-by statistics can expose.
func (s *synth) groupEffects(levels []string, sd float64) []float64 {
	order := make([]int, len(levels))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return levels[order[a]] < levels[order[b]] })
	out := make([]float64, len(levels))
	for _, i := range order {
		out[i] = s.normal(0, sd)
	}
	return out
}

// labelsFromScores converts latent scores into binary labels: rows are
// labelled 1 when score is at least the cut, then flipped with probability
// noise — controlling both class balance and attainable AUC. The cut is the
// (1-posRate) quantile: the k-th smallest score, k = int(n·(1-posRate)), in
// the order sort.Float64s gives (NaN first, −0 tied with +0), found by
// kthSmallest's selection rather than a sort. It draws nothing from s.rng
// beyond one Float64 a row for the flips.
func (s *synth) labelsFromScores(scores []float64, posRate, noise float64) []float64 {
	cut := kthSmallest(scores, int(float64(len(scores))*(1-posRate)))
	out := make([]float64, len(scores))
	for i, v := range scores {
		y := 0.0
		if v >= cut {
			y = 1
		}
		if s.rng.Float64() < noise {
			y = 1 - y
		}
		out[i] = y
	}
	return out
}

// kthSmallest returns xs[k] of a copy of xs sorted by sort.Float64s, without
// sorting it and leaving xs as it is: NaNs sort first, so k below their
// count gives NaN, and otherwise the answer is the (k − NaNs)-th smallest
// of the other values, which selectKth finds.
func kthSmallest(xs []float64, k int) float64 {
	rest := make([]float64, 0, len(xs))
	for _, v := range xs {
		if v == v { // not NaN
			rest = append(rest, v)
		}
	}
	nans := len(xs) - len(rest)
	if k < nans {
		return math.NaN()
	}
	return selectKth(rest, k-nans)
}

// selectKth reorders a, which holds no NaN, so that a[k] holds what a
// sorted a would hold there, and returns it: quickselect. Each round
// partitions the range that holds k around the median of its first, middle
// and last values (Hoare's scheme, so runs of equal values split evenly)
// and keeps the side that holds k. A round that keeps more than 7/8 of its
// range is unbalanced; after 2·log2(n) of those, or once the range is
// short, the rest of the range is sorted, so no input costs more than a
// sort.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for unbalanced := 2 * bits.Len(uint(len(a))); hi-lo > 16 && unbalanced > 0; {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		// a[lo] ≤ p ≤ a[hi] bound both scans.
		p := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for p < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo..j] ≤ p, a[j+1..i-1] = p and a[i..hi] ≥ p.
		n := hi - lo + 1
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
		if hi-lo+1 > n-n/8 {
			unbalanced--
		}
	}
	sort.Float64s(a[lo : hi+1])
	return a[k]
}

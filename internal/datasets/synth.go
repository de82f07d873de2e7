package datasets

import (
	"math"
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
// labelled 1 when score exceeds the (1-posRate) quantile, then flipped with
// probability noise — controlling both class balance and attainable AUC.
func (s *synth) labelsFromScores(scores []float64, posRate, noise float64) []float64 {
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	cut := sorted[int(float64(len(sorted))*(1-posRate))]
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

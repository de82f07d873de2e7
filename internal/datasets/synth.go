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

// choice picks uniformly from options.
func (s *synth) choice(options []string) string {
	return options[s.rng.Intn(len(options))]
}

// weightedChoice picks with the given weights.
func (s *synth) weightedChoice(options []string, weights []float64) string {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	r := s.rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return options[i]
		}
	}
	return options[len(options)-1]
}

// groupEffects assigns each level a latent effect N(0, sd), deterministic
// for the generator's seed. Used to plant group-level signal that only
// group-by statistics can expose.
func (s *synth) groupEffects(levels []string, sd float64) map[string]float64 {
	sorted := append([]string(nil), levels...)
	sort.Strings(sorted)
	out := make(map[string]float64, len(sorted))
	for _, lvl := range sorted {
		out[lvl] = s.normal(0, sd)
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

package fm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// CurrentYear anchors "years since" derivations (the paper's F2 computes a
// manufacturing year from a car's age and the current year).
const CurrentYear = 2024

// AgendaColumn is the simulated FM's parsed view of one data-agenda line.
type AgendaColumn struct {
	Name        string
	Description string
	Numeric     bool
	Cardinality int
	Min, Max    float64
	Levels      []string
}

// proposal is one unary-operator suggestion with an LLM-style confidence.
type proposal struct {
	Op          string
	Confidence  string // certain / high / medium / low
	Description string
}

// proposeUnary returns the knowledge base's unary-operator proposals for a
// column, ordered by confidence. This realises the paper's proposal strategy
// (Table 2, first row).
func proposeUnary(col AgendaColumn, target string) []proposal {
	role := InferRole(col)
	var out []proposal
	add := func(op, conf, desc string) {
		out = append(out, proposal{Op: op, Confidence: conf, Description: desc})
	}
	if !col.Numeric {
		switch {
		case col.Cardinality <= 2:
			// A binary categorical is already a single indicator after
			// factorization; one-hot adds nothing.
		case col.Cardinality <= 12:
			add("get_dummies", "high", fmt.Sprintf("One-hot indicator columns for each level of %s", col.Name))
		case col.Cardinality <= 30:
			add("get_dummies", "medium", fmt.Sprintf("One-hot indicators for the most frequent levels of %s", col.Name))
		default:
			add("get_dummies", "low", fmt.Sprintf("One-hot encoding of %s (high cardinality, likely too sparse)", col.Name))
		}
		return out
	}
	switch role {
	case RoleAge:
		add("bucketize", "certain", fmt.Sprintf("Bucketization of %s into practically meaningful bands (e.g. the common 21-year-old threshold in insurance quotes)", col.Name))
		if strings.Contains(strings.ToLower(col.Name+" "+col.Description), "car") ||
			strings.Contains(strings.ToLower(col.Description), "vehicle") {
			add("years_since", "high", fmt.Sprintf("Manufacturing year: difference between the current year (%d) and %s", CurrentYear, col.Name))
		}
		add("standardize", "medium", fmt.Sprintf("Standardization of %s for scale-sensitive models", col.Name))
	case RoleYear:
		add("years_since", "certain", fmt.Sprintf("Years elapsed since %s (current year %d minus the value)", col.Name, CurrentYear))
	case RoleDate:
		add("date_split", "certain", fmt.Sprintf("Split %s into year, month and day components", col.Name))
	case RoleMoney:
		add("log", "high", fmt.Sprintf("Log transform of %s to compress its heavy right tail", col.Name))
		add("normalize", "medium", fmt.Sprintf("Min-max scaling of %s", col.Name))
	case RoleCount:
		// Counts usually matter through ratios, not their own scale.
		add("log", "medium", fmt.Sprintf("log1p transform of the count %s", col.Name))
		add("bucketize", "medium", fmt.Sprintf("Bucketize %s into low/medium/high bands", col.Name))
	case RoleRate:
		add("normalize", "low", fmt.Sprintf("Min-max scaling of %s (already ratio-scaled)", col.Name))
	case RoleMeasure:
		add("bucketize", "high", fmt.Sprintf("Clinical-style banding of %s (normal / elevated / high)", col.Name))
		add("standardize", "medium", fmt.Sprintf("Standardization of %s", col.Name))
	case RoleScore:
		add("standardize", "medium", fmt.Sprintf("Standardization of the score %s", col.Name))
	case RoleDuration:
		add("bucketize", "medium", fmt.Sprintf("Banding of %s into short/medium/long", col.Name))
	case RoleSeason:
		add("bucketize", "high", fmt.Sprintf("Seasonal banding of %s (transmission and activity peak in specific periods)", col.Name))
	case RoleBinary, RoleID:
		// Nothing useful; an honest FM declines.
	default:
		add("standardize", "medium", fmt.Sprintf("Standardization of %s for models sensitive to feature scale when predicting %s", col.Name, target))
		if col.Min >= 0 && col.Max > 10*math.Max(1, col.Min+1) {
			add("log", "medium", fmt.Sprintf("log1p transform of the skewed feature %s", col.Name))
		}
	}
	return out
}

// bucketBoundaries picks bucketization cut points for a column: domain
// knowledge for well-known roles, quartile-style cuts otherwise.
func bucketBoundaries(col AgendaColumn) []float64 {
	role := InferRole(col)
	switch role {
	case RoleAge:
		if col.Max <= 30 { // ages of objects (cars), not people
			return []float64{3, 7, 12}
		}
		return []float64{21, 35, 50, 65}
	case RoleMeasure:
		lower := strings.ToLower(col.Name + " " + col.Description)
		switch {
		case strings.Contains(lower, "bmi"):
			return []float64{18.5, 25, 30}
		case strings.Contains(lower, "glucose"):
			return []float64{100, 126}
		case strings.Contains(lower, "systolic"):
			return []float64{120, 140, 160}
		case strings.Contains(lower, "pressure"):
			return []float64{80, 90, 120}
		}
	}
	// Quartile-ish cuts from the advertised range.
	lo, hi := col.Min, col.Max
	if !(hi > lo) {
		return []float64{0}
	}
	span := hi - lo
	return []float64{lo + span/4, lo + span/2, lo + 3*span/4}
}

// derivedMarkers appear in the descriptions of features SMARTFEAT itself
// generated. An LLM reading "Bucketization of Age" knows the column is a
// coarse derived band, not a raw quantity, and avoids stacking arithmetic on
// it; the knowledge base mirrors that judgement.
var derivedMarkers = []string{
	"bucketization", "banding", "one-hot", "df.groupby", "composite index",
	"efficiency index", "ratio-style", "scaling of", "standardization",
	"log transform", "log1p", "years elapsed", "manufacturing year",
	"split ", "component ", "(normal / elevated / high)", "into low/medium/high",
	"add of", "subtract of", "multiply of", "divide of",
}

// isDerived reports whether a column's description marks it as generated.
func isDerived(col AgendaColumn) bool {
	text := strings.ToLower(col.Description)
	for _, m := range derivedMarkers {
		if strings.Contains(text, m) {
			return true
		}
	}
	return false
}

// isBucketLike reports whether a derived column is a discrete banding —
// useful as a group-by key even though it is derived.
func isBucketLike(col AgendaColumn) bool {
	text := strings.ToLower(col.Description)
	return strings.Contains(text, "bucketization") || strings.Contains(text, "banding") ||
		strings.Contains(text, "into low/medium/high")
}

// positiveTokens / negativeTokens mark performance-outcome words; a divide
// of a "success" count by an "attempt/failure" count is the classic
// conversion-rate feature an LLM reaches for.
var positiveTokens = []string{"won", "wins", "winners", "aces", "success", "passed", "converted"}
var negativeTokens = []string{"errors", "faults", "unforced", "lost", "missed", "failures", "double"}
var attemptTokens = []string{"attempted", "attempts", "created", "tries"}

func hasAnyWord(text string, words []string) bool {
	for _, w := range words {
		if containsWord(text, w) {
			return true
		}
	}
	return false
}

// sharedEntityTokens counts meaningful words two descriptions share — the
// signal that two columns describe the same entity ("break points created" /
// "break points won").
func sharedEntityTokens(a, b AgendaColumn) int {
	stop := map[string]bool{
		"the": true, "of": true, "a": true, "an": true, "for": true, "by": true,
		"in": true, "to": true, "and": true, "number": true, "player": true,
		"percentage": true, "per": true, "with": true, "on": true, "is": true,
	}
	tokensOf := func(c AgendaColumn) map[string]bool {
		out := map[string]bool{}
		for _, t := range strings.FieldsFunc(strings.ToLower(c.Name+" "+c.Description), func(r rune) bool {
			return !(r >= 'a' && r <= 'z') && !(r >= '0' && r <= '9')
		}) {
			if len(t) > 2 && !stop[t] {
				out[t] = true
			}
		}
		return out
	}
	ta, tb := tokensOf(a), tokensOf(b)
	n := 0
	for t := range ta {
		if tb[t] {
			n++
		}
	}
	return n
}

// pairScore weights a binary-operator pairing; higher is more plausible.
// Mirrors how an LLM prefers semantically meaningful combinations (ratios of
// counts, money per count, same-entity conversion rates, measurement
// interactions) over arbitrary ones. ra and rb are InferRole(a) and
// InferRole(b), inferred once per prompt by the caller: a prompt scores
// every ordered pair of its numeric columns under four operators.
func pairScore(a, b AgendaColumn, ra, rb Role, op string) float64 {
	base := rolePairScore(ra, rb, op)
	if base <= 0 {
		return base
	}
	// Arithmetic over already-derived features is rarely meaningful
	// (dividing two bucket indices, say); strongly discount it, and refuse
	// it entirely when both sides are derived.
	if isDerived(a) && isDerived(b) {
		return 0
	}
	if isDerived(a) || isDerived(b) {
		base *= 0.05
	}
	// Coordinates are positions, not quantities: arithmetic on them is
	// meaningless.
	if ra == RoleGeo || rb == RoleGeo {
		base *= 0.05
	}
	descA := strings.ToLower(a.Name + " " + a.Description)
	descB := strings.ToLower(b.Name + " " + b.Description)
	switch op {
	case "divide":
		// Conversion rates: successes over attempts of the same entity. The
		// denominator must itself not be an outcome count.
		if hasAnyWord(descA, positiveTokens) && hasAnyWord(descB, attemptTokens) && !hasAnyWord(descB, positiveTokens) {
			base *= 8
		}
		// Effectiveness ratios: successes over failures.
		if hasAnyWord(descA, positiveTokens) && hasAnyWord(descB, negativeTokens) {
			base *= 2.5
		}
		// Dividing by a percentage/rate is rarely meaningful.
		if rb == RoleRate {
			base *= 0.3
		}
		if shared := sharedEntityTokens(a, b); shared > 0 {
			base *= 1 + 2*float64(shared)
		}
	case "subtract":
		if hasAnyWord(descA, positiveTokens) && hasAnyWord(descB, negativeTokens) {
			base *= 2.5
		}
	}
	return base
}

func rolePairScore(ra, rb Role, op string) float64 {
	switch op {
	case "divide":
		switch {
		case ra == RoleMoney && rb == RoleCount:
			return 8 // money per unit
		case ra == RoleCount && rb == RoleCount:
			return 7 // success ratios
		case ra == RoleCount && rb == RoleDuration:
			return 6 // events per time
		case ra == RoleMeasure && rb == RoleMeasure:
			return 4
		case ra == RoleScore && rb == RoleScore:
			return 3
		case rb == RoleID || ra == RoleID || rb == RoleBinary:
			return 0.1
		default:
			return 1
		}
	case "subtract":
		switch {
		case ra == rb && ra != RoleGeneric && ra != RoleID:
			return 5 // same-unit differences
		case ra == RoleYear || rb == RoleYear:
			return 4
		case ra == RoleID || rb == RoleID:
			return 0.1
		default:
			return 1
		}
	case "multiply":
		switch {
		case ra == RoleRate && rb == RoleCount, ra == RoleCount && rb == RoleRate:
			return 6 // expected counts
		case ra == RoleRate && rb == RoleMoney, ra == RoleMoney && rb == RoleRate:
			return 5
		case ra == RoleMeasure && rb == RoleMeasure:
			return 3
		case ra == RoleCount && rb == RoleCount:
			// The product of two totals explodes in scale and rarely means
			// anything; an LLM prefers their ratio.
			return 0.2
		case ra == RoleMoney || rb == RoleMoney:
			return 0.4 // money times anything non-rate is ill-unitized
		case ra == RoleID || rb == RoleID:
			return 0.1
		default:
			return 0.4 // arbitrary products are rarely meaningful
		}
	case "add":
		switch {
		case ra == rb && ra == RoleScore:
			return 4 // combined scores share a scale
		case ra == rb && ra == RoleCount:
			return 1 // totals of different things usually don't add
		case ra == RoleID || rb == RoleID:
			return 0.1
		default:
			return 0.6
		}
	}
	return 0.5
}

// binaryOps is the paper's four arithmetic binary operators.
var binaryOps = []string{"add", "subtract", "multiply", "divide"}

// opSymbol maps a binary op to its expression-language spelling.
func opSymbol(op string) string {
	switch op {
	case "add":
		return "+"
	case "subtract":
		return "-"
	case "multiply":
		return "*"
	case "divide":
		return "/"
	}
	return "?"
}

// weightedPick samples index i with probability weights[i]/sum.
func weightedPick(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return rng.Intn(len(weights))
	}
	r := rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// groupbyWeight scores a column as a Groupby key: moderate-cardinality
// categorical or discrete numeric columns partition the data usefully.
func groupbyWeight(col AgendaColumn) float64 {
	if InferRole(col) == RoleID {
		return 0
	}
	if isDerived(col) && !isBucketLike(col) {
		return 0 // only banded derivations partition data meaningfully
	}
	card := col.Cardinality
	switch {
	case !col.Numeric && card >= 2 && card <= 50:
		return 6
	case !col.Numeric && card <= 100:
		return 2
	case col.Numeric && card >= 2 && card <= 12:
		return 3 // bucketized / small discrete numerics
	default:
		return 0
	}
}

// aggWeight scores a column as an aggregation target: rates, counts and
// money aggregate into informative group statistics; the target-adjacent
// history columns (e.g. past claims) are what the paper's F3 exploits.
func aggWeight(col AgendaColumn, target string) float64 {
	if !col.Numeric {
		return 0
	}
	if isDerived(col) {
		return 0 // aggregate raw history, not derived features
	}
	switch InferRole(col) {
	case RoleID:
		return 0
	case RoleGeo, RoleSeason:
		return 0.2 // averaging positions or calendar indices is rarely useful
	case RoleRate, RoleCount:
		return 5
	case RoleMoney, RoleBinary:
		return 4
	case RoleMeasure, RoleScore:
		return 2
	default:
		if col.Name == target {
			return 0 // never aggregate the label itself
		}
		return 1
	}
}

// aggFunctions and weights for the high-order sampler.
var aggFunctions = []string{"mean", "max", "min", "sum", "std", "count", "median"}
var aggFunctionWeights = []float64{8, 2, 1.5, 1.5, 1.5, 1, 1}

// cityDensity is the knowledge base's "open-world" table: approximate
// population density (people per square mile) for major US cities — the
// external knowledge behind the motivating F4 feature.
var cityDensity = map[string]float64{
	"SF": 18838, "San Francisco": 18838,
	"LA": 8304, "Los Angeles": 8304,
	"SEA": 9287, "Seattle": 9287,
	"NYC": 29302, "New York": 29302,
	"CHI": 12059, "Chicago": 12059,
	"HOU": 3599, "Houston": 3599,
	"PHX": 3105, "Phoenix": 3105,
	"PHL": 11936, "Philadelphia": 11936,
	"SA": 3238, "San Antonio": 3238,
	"SD": 4256, "San Diego": 4256,
	"DAL": 3866, "Dallas": 3866,
	"SJ": 5683, "San Jose": 5683,
	"AUS": 3007, "Austin": 3007,
	"BOS": 13977, "Boston": 13977,
	"MIA": 12284, "Miami": 12284,
	"DEN": 4674, "Denver": 4674,
	"ATL": 3685, "Atlanta": 3685,
	"POR": 4375, "Portland": 4375,
	"DET": 4695, "Detroit": 4695,
	"MIN": 7962, "Minneapolis": 7962,
}

// lookupDensity returns the KB's density for an entity. Unknown entities get
// a deterministic pseudo-density — the analogue of an LLM confidently
// producing a plausible value it has no grounding for.
func lookupDensity(entity string) float64 {
	if v, ok := cityDensity[entity]; ok {
		return v
	}
	for k, v := range cityDensity {
		if strings.EqualFold(k, entity) {
			return v
		}
	}
	return hallucinatedValue(entity, 500, 20000)
}

// hallucinatedValue derives a deterministic pseudo-value in [lo, hi] from an
// entity string via hashing.
func hallucinatedValue(entity string, lo, hi float64) float64 {
	h := sha256.Sum256([]byte(strings.ToLower(entity)))
	u := binary.BigEndian.Uint64(h[:8])
	frac := float64(u%1_000_000) / 1_000_000
	return math.Round(lo + frac*(hi-lo))
}

// densityMapping builds a city→density table for the given levels, sorted
// input for determinism.
func densityMapping(levels []string) map[string]float64 {
	sorted := append([]string(nil), levels...)
	sort.Strings(sorted)
	out := make(map[string]float64, len(sorted))
	for _, lvl := range sorted {
		out[lvl] = lookupDensity(lvl)
	}
	return out
}

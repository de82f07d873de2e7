package fm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// SimulatedConfig configures the offline foundation-model stand-in.
type SimulatedConfig struct {
	// ModelName labels the simulated endpoint (e.g. "gpt-4-sim").
	ModelName string
	// Seed drives sampling-strategy randomness and error injection.
	Seed int64
	// ErrorRate is the probability a completion comes back malformed —
	// truncated JSON or a hallucinated column — exercising the paper's
	// generation-error threshold. Zero disables injection.
	ErrorRate float64
	// Pricing selects the cost/latency profile for usage accounting.
	Pricing Pricing
	// LatencyScale makes Complete actually sleep the simulated per-call
	// latency, scaled by this factor (1 = the full published profile,
	// 0 = no sleeping, just accounting — the default). The sleep happens
	// outside the model's internal lock, so concurrent callers overlap the
	// way real network calls would, and it aborts early on ctx cancellation.
	LatencyScale float64
}

// Simulated answers SMARTFEAT's prompt templates from a semantic knowledge
// base (see package comment). It is deterministic for a given seed and call
// sequence.
type Simulated struct {
	accounting
	cfg SimulatedConfig
	mu  sync.Mutex
	rng *rand.Rand
}

// NewSimulated builds a simulated FM.
func NewSimulated(cfg SimulatedConfig) *Simulated {
	if cfg.ModelName == "" {
		cfg.ModelName = "sim"
	}
	if cfg.Pricing == (Pricing{}) {
		cfg.Pricing = GPT35Pricing
	}
	return &Simulated{
		accounting: accounting{pricing: cfg.Pricing},
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
	}
}

// NewGPT4Sim returns the operator-selector model profile (paper §4.1 uses
// GPT-4 for the operator selector).
func NewGPT4Sim(seed int64, errorRate float64) *Simulated {
	return NewSimulated(SimulatedConfig{ModelName: "gpt-4-sim", Seed: seed, ErrorRate: errorRate, Pricing: GPT4Pricing})
}

// NewGPT35Sim returns the function-generator model profile (GPT-3.5-turbo in
// the paper, chosen for comparable quality at better efficiency).
func NewGPT35Sim(seed int64, errorRate float64) *Simulated {
	return NewSimulated(SimulatedConfig{ModelName: "gpt-3.5-turbo-sim", Seed: seed, ErrorRate: errorRate, Pricing: GPT35Pricing})
}

// Name implements Model.
func (s *Simulated) Name() string { return s.cfg.ModelName }

// Complete implements Model.
func (s *Simulated) Complete(ctx context.Context, prompt string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	resp, err := s.answer(prompt)
	if err != nil {
		return "", err
	}
	s.record(prompt, resp)
	if s.cfg.LatencyScale > 0 {
		d := s.cfg.Pricing.BaseLatency +
			time.Duration(EstimateTokens(resp))*s.cfg.Pricing.PerTokenLatency
		d = time.Duration(float64(d) * s.cfg.LatencyScale)
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-t.C:
		}
	}
	return resp, nil
}

// answer computes the knowledge-base response under the rng lock (so the
// sampling sequence is deterministic for a given call order), leaving any
// latency simulation to the caller-side of the lock.
func (s *Simulated) answer(prompt string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fields, err := parsePrompt(prompt)
	if err != nil {
		return "", err
	}
	if s.cfg.ErrorRate > 0 {
		if fields.Task == TaskCompleteRow {
			// Row completions fan out concurrently through the gateway, so a
			// positional rng draw would tie corruption to scheduler arrival
			// order. Derive the draw from the prompt content instead: the
			// same row is corrupted (or not) at any concurrency, keeping
			// row-level runs deterministic end to end.
			key := fmt.Sprintf("%d|%s", s.cfg.Seed, prompt)
			if hashFrac(key) < s.cfg.ErrorRate {
				return corruptedVariant(int(3 * hashFrac("variant|"+key))), nil
			}
		} else if s.rng.Float64() < s.cfg.ErrorRate {
			return s.corrupted(fields), nil
		}
	}
	switch fields.Task {
	case TaskProposeUnary:
		return s.answerProposeUnary(fields)
	case TaskSampleBinary:
		return s.answerSampleBinary(fields)
	case TaskSampleHighOrder:
		return s.answerSampleHighOrder(fields)
	case TaskSampleExtractor:
		return s.answerSampleExtractor(fields)
	case TaskGenerateFunction:
		return s.answerGenerateFunction(fields)
	case TaskCompleteRow:
		return s.answerCompleteRow(fields)
	default:
		return "", fmt.Errorf("fm: unknown task %q", fields.Task)
	}
}

// corrupted fabricates a malformed response of the right general shape.
func (s *Simulated) corrupted(fields promptFields) string {
	return corruptedVariant(s.rng.Intn(3))
}

// corruptedVariant is the shared malformed-response vocabulary.
func corruptedVariant(v int) string {
	switch v {
	case 0:
		return `{"groupby_col": ["` // truncated JSON
	case 1:
		return `{"op":"divide","left":"Zodiac_Sign","right":"Lucky_Number"}` // hallucinated columns
	default:
		return "I'm sorry, I cannot determine a useful transformation here."
	}
}

// answerProposeUnary lists knowledge-base operator proposals for the
// attribute, in the paper's "op (confidence): description" line format
// (Table 2, proposal strategy).
func (s *Simulated) answerProposeUnary(f promptFields) (string, error) {
	col, ok := findColumn(f.Agenda, f.Attribute)
	if !ok {
		return "", fmt.Errorf("fm: attribute %q not in dataset description", f.Attribute)
	}
	props := proposeUnary(col, f.Target)
	if len(props) == 0 {
		return "none (certain): no unary transformation of this attribute is likely to help", nil
	}
	var b strings.Builder
	for _, p := range props {
		fmt.Fprintf(&b, "%s (%s): %s\n", p.Op, p.Confidence, p.Description)
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

// binarySample is the JSON shape of a sampled binary-operator candidate.
type binarySample struct {
	Op          string `json:"op"`
	Left        string `json:"left"`
	Right       string `json:"right"`
	Name        string `json:"name"`
	Description string `json:"description"`
}

// answerSampleBinary draws one arithmetic combination, weighted by semantic
// plausibility (the sampling strategy over a rich space, §3.2).
func (s *Simulated) answerSampleBinary(f promptFields) (string, error) {
	var numeric []AgendaColumn
	for _, c := range f.Agenda {
		if c.Numeric && c.Name != f.Target {
			numeric = append(numeric, c)
		}
	}
	if len(numeric) < 2 {
		return "", fmt.Errorf("fm: not enough numeric attributes for binary operators")
	}
	roles := make([]Role, len(numeric))
	for i, c := range numeric {
		roles[i] = InferRole(c)
	}
	type cand struct {
		op   string
		a, b AgendaColumn
		w    float64
	}
	var cands []cand
	for _, op := range binaryOps {
		for i := range numeric {
			for j := range numeric {
				if i == j {
					continue
				}
				// Symmetric ops: one orientation is enough.
				if (op == "add" || op == "multiply") && i > j {
					continue
				}
				w := pairScore(numeric[i], numeric[j], roles[i], roles[j], op)
				if w > 0 {
					cands = append(cands, cand{op, numeric[i], numeric[j], w})
				}
			}
		}
	}
	weights := make([]float64, len(cands))
	for i, c := range cands {
		weights[i] = c.w
	}
	pick := cands[weightedPick(s.rng, weights)]
	sample := binarySample{
		Op:    pick.op,
		Left:  pick.a.Name,
		Right: pick.b.Name,
		Name:  fmt.Sprintf("%s_%s_%s", sanitizeName(pick.a.Name), pick.op, sanitizeName(pick.b.Name)),
		Description: fmt.Sprintf("%s of %s and %s (%s %s %s)",
			strings.Title(pick.op), pick.a.Name, pick.b.Name,
			pick.a.Name, opSymbol(pick.op), pick.b.Name),
	}
	out, err := json.Marshal(sample)
	return string(out), err
}

// highOrderSample matches the paper's Table 2 output for the high-order
// operator: {groupby_col: [cols], agg_col: col, function: fn}.
type highOrderSample struct {
	GroupbyCol []string `json:"groupby_col"`
	AggCol     string   `json:"agg_col"`
	Function   string   `json:"function"`
}

// answerSampleHighOrder draws a GroupbyThenAgg candidate.
func (s *Simulated) answerSampleHighOrder(f promptFields) (string, error) {
	var groupCands []AgendaColumn
	var groupWeights []float64
	var aggCands []AgendaColumn
	var aggWeights []float64
	for _, c := range f.Agenda {
		if c.Name == f.Target {
			continue
		}
		if w := groupbyWeight(c); w > 0 {
			groupCands = append(groupCands, c)
			groupWeights = append(groupWeights, w)
		}
		if w := aggWeight(c, f.Target); w > 0 {
			aggCands = append(aggCands, c)
			aggWeights = append(aggWeights, w)
		}
	}
	if len(groupCands) == 0 || len(aggCands) == 0 {
		return "", fmt.Errorf("fm: no valid groupby/aggregate attributes")
	}
	group := []string{groupCands[weightedPick(s.rng, groupWeights)].Name}
	// Occasionally group by two columns, as the template allows [cols].
	if len(groupCands) > 1 && s.rng.Float64() < 0.25 {
		second := groupCands[weightedPick(s.rng, groupWeights)].Name
		if second != group[0] {
			group = append(group, second)
		}
	}
	var agg AgendaColumn
	for tries := 0; tries < 8; tries++ {
		agg = aggCands[weightedPick(s.rng, aggWeights)]
		if !containsStr(group, agg.Name) {
			break
		}
	}
	fn := aggFunctions[weightedPick(s.rng, aggFunctionWeights)]
	out, err := json.Marshal(highOrderSample{GroupbyCol: group, AggCol: agg.Name, Function: fn})
	return string(out), err
}

// extractorSample is the JSON shape of a sampled extractor candidate.
type extractorSample struct {
	Kind        string   `json:"kind"` // composite | external | rowlevel | datasource
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Columns     []string `json:"columns"`
}

// answerSampleExtractor draws one extractor candidate: a composite index
// over several numeric attributes, an external-knowledge lookup for a geo
// attribute (the motivating F4), a row-level completion, or a data-source
// suggestion.
func (s *Simulated) answerSampleExtractor(f promptFields) (string, error) {
	var geo []AgendaColumn
	var numeric []AgendaColumn
	for _, c := range f.Agenda {
		if c.Name == f.Target {
			continue
		}
		if !c.Numeric && InferRole(c) == RoleGeo {
			geo = append(geo, c)
		}
		switch {
		case !c.Numeric:
		case InferRole(c) == RoleID, InferRole(c) == RoleBinary, InferRole(c) == RoleGeo:
		case isDerived(c): // compose raw attributes, not derived ones
		default:
			numeric = append(numeric, c)
		}
	}
	type option struct {
		build func() extractorSample
		w     float64
	}
	var options []option
	if len(geo) > 0 {
		options = append(options, option{w: 5, build: func() extractorSample {
			g := geo[s.rng.Intn(len(geo))]
			if g.Cardinality > 40 {
				return extractorSample{
					Kind:        "rowlevel",
					Name:        fmt.Sprintf("Population_Density_%s", sanitizeName(g.Name)),
					Description: fmt.Sprintf("Approximate population density for each %s, obtained by row-level completion (too many distinct values for a lookup table)", g.Name),
					Columns:     []string{g.Name},
				}
			}
			return extractorSample{
				Kind:        "external",
				Name:        fmt.Sprintf("Population_Density_%s", sanitizeName(g.Name)),
				Description: fmt.Sprintf("Population density (people per square mile) extracted from %s using open-world knowledge", g.Name),
				Columns:     []string{g.Name},
			}
		}})
	}
	if len(numeric) >= 2 {
		options = append(options, option{w: 6, build: func() extractorSample {
			k := 2 + s.rng.Intn(3)
			if k > len(numeric) {
				k = len(numeric)
			}
			perm := s.rng.Perm(len(numeric))[:k]
			cols := make([]string, k)
			for i, p := range perm {
				cols[i] = numeric[p].Name
			}
			return extractorSample{
				Kind:        "composite",
				Name:        fmt.Sprintf("Composite_Index_%s", shortHash(strings.Join(cols, "|"))),
				Description: fmt.Sprintf("Composite index computed as a weighted combination of %s, summarising their joint effect on %s", strings.Join(cols, ", "), f.Target),
				Columns:     cols,
			}
		}})
		options = append(options, option{w: 2.5, build: func() extractorSample {
			perm := s.rng.Perm(len(numeric))
			a, b := numeric[perm[0]], numeric[perm[1]]
			c := a
			if len(perm) > 2 {
				c = numeric[perm[2]]
			}
			cols := []string{a.Name, b.Name, c.Name}
			return extractorSample{
				Kind:        "composite",
				Name:        fmt.Sprintf("Ratio_Index_%s", shortHash(strings.Join(cols, "|"))),
				Description: fmt.Sprintf("Ratio-style index: (%s + %s) relative to (%s)", a.Name, b.Name, c.Name),
				Columns:     cols,
			}
		}})
		// Performance-efficiency index: successes relative to failures — the
		// classic domain feature an LLM derives from outcome-labelled counts.
		var positives, negatives []AgendaColumn
		for _, c := range numeric {
			text := strings.ToLower(c.Name + " " + c.Description)
			switch {
			case hasAnyWord(text, positiveTokens):
				positives = append(positives, c)
			case hasAnyWord(text, negativeTokens):
				negatives = append(negatives, c)
			}
		}
		if len(positives) > 0 && len(negatives) > 0 {
			options = append(options, option{w: 7, build: func() extractorSample {
				np := 1 + s.rng.Intn(min(3, len(positives)))
				nn := 1 + s.rng.Intn(min(2, len(negatives)))
				pp := s.rng.Perm(len(positives))[:np]
				nq := s.rng.Perm(len(negatives))[:nn]
				var posNames, negNames []string
				for _, i := range pp {
					posNames = append(posNames, positives[i].Name)
				}
				for _, i := range nq {
					negNames = append(negNames, negatives[i].Name)
				}
				cols := append(append([]string(nil), posNames...), negNames...)
				return extractorSample{
					Kind: "composite",
					Name: fmt.Sprintf("Efficiency_Index_%s", shortHash(strings.Join(cols, "|"))),
					Description: fmt.Sprintf("Performance efficiency index: (%s) relative to (%s)",
						strings.Join(posNames, " + "), strings.Join(negNames, " + ")),
					Columns: cols,
				}
			}})
		}
	}
	options = append(options, option{w: 0.5, build: func() extractorSample {
		return extractorSample{
			Kind:        "datasource",
			Name:        "External_Enrichment",
			Description: "No in-model transformation applies; consider joining an external source such as https://www.census.gov/data or https://data.worldbank.org for enrichment",
		}
	}})
	weights := make([]float64, len(options))
	for i, o := range options {
		weights[i] = o.w
	}
	sample := options[weightedPick(s.rng, weights)].build()
	out, err := json.Marshal(sample)
	return string(out), err
}

// answerGenerateFunction emits an executable transform spec (JSON) for the
// operator the selector chose — the function-generator phase (§3.3).
func (s *Simulated) answerGenerateFunction(f promptFields) (string, error) {
	if len(f.RelevantCol) == 0 {
		return "", fmt.Errorf("fm: generate-function prompt lists no relevant columns")
	}
	first := f.RelevantCol[0]
	col, _ := findColumn(f.Agenda, first)
	spec := map[string]any{}
	switch f.Operator {
	case "bucketize":
		spec["kind"] = "bucketize"
		spec["input"] = first
		spec["boundaries"] = bucketBoundaries(col)
	case "log":
		spec["kind"] = "expr"
		spec["expr"] = fmt.Sprintf("log1p(%s)", quoteIdent(first))
	case "normalize":
		spec["kind"] = "minmax"
		spec["input"] = first
	case "standardize":
		spec["kind"] = "standardize"
		spec["input"] = first
	case "get_dummies":
		spec["kind"] = "dummies"
		spec["input"] = first
		spec["max_levels"] = 10
	case "date_split":
		spec["kind"] = "datesplit"
		spec["input"] = first
	case "years_since":
		spec["kind"] = "expr"
		spec["expr"] = fmt.Sprintf("%d - %s", CurrentYear, quoteIdent(first))
	case "add", "subtract", "multiply", "divide":
		if len(f.RelevantCol) < 2 {
			return "", fmt.Errorf("fm: binary operator needs two relevant columns")
		}
		spec["kind"] = "expr"
		spec["expr"] = fmt.Sprintf("%s %s %s", quoteIdent(first), opSymbol(f.Operator), quoteIdent(f.RelevantCol[1]))
	case "extractor":
		return s.generateExtractorFunction(f)
	default:
		return "", fmt.Errorf("fm: unknown operator %q", f.Operator)
	}
	out, err := json.Marshal(spec)
	return string(out), err
}

// generateExtractorFunction realises an extractor candidate as a concrete
// spec: an external lookup table from the knowledge base, a row-level
// completion marker, a data-source suggestion, or a composite formula with
// deterministic pseudo-learned weights.
func (s *Simulated) generateExtractorFunction(f promptFields) (string, error) {
	desc := strings.ToLower(f.Description)
	switch {
	case strings.Contains(desc, "row-level"):
		out, err := json.Marshal(map[string]any{"kind": "rowlevel"})
		return string(out), err
	case strings.Contains(desc, "data source") || strings.Contains(desc, "external source") || strings.Contains(desc, "consider joining"):
		out, err := json.Marshal(map[string]any{
			"kind":   "datasource",
			"source": "https://www.census.gov/data (population statistics), https://data.worldbank.org (country indicators)",
		})
		return string(out), err
	case strings.Contains(desc, "population density") || strings.Contains(desc, "open-world knowledge"):
		col, ok := findColumn(f.Agenda, f.RelevantCol[0])
		if !ok || len(col.Levels) == 0 {
			out, err := json.Marshal(map[string]any{"kind": "rowlevel"})
			return string(out), err
		}
		out, err := json.Marshal(map[string]any{
			"kind":    "mapvalues",
			"input":   col.Name,
			"mapping": densityMapping(col.Levels),
		})
		return string(out), err
	default:
		cols := f.RelevantCol
		if len(cols) == 0 {
			return "", fmt.Errorf("fm: extractor without relevant columns")
		}
		// Ratio indices spell their formula in the description:
		// "(A + B) relative to (C + D)" → (A + B) / (C + D + 1).
		if num, den, ok := parseRelativeGroups(f.Description); ok {
			numQ := make([]string, len(num))
			for i, c := range num {
				numQ[i] = quoteIdent(c)
			}
			denQ := make([]string, len(den))
			for i, c := range den {
				denQ[i] = quoteIdent(c)
			}
			expr := fmt.Sprintf("(%s) / (%s + 1)", strings.Join(numQ, " + "), strings.Join(denQ, " + "))
			out, err := json.Marshal(map[string]any{"kind": "expr", "expr": expr})
			return string(out), err
		}
		// Composite index: weights derived deterministically from the feature
		// name so reruns agree (the FM "recalls" the same formula).
		terms := make([]string, len(cols))
		for i, c := range cols {
			w := 0.2 + 0.8*hashFrac(f.NewFeature+"|"+c)
			terms[i] = fmt.Sprintf("%.2f * %s", w, quoteIdent(c))
		}
		out, err := json.Marshal(map[string]any{"kind": "expr", "expr": strings.Join(terms, " + ")})
		return string(out), err
	}
}

// parseRelativeGroups extracts the "(A + B) relative to (C + D)" column
// groups from a ratio-index description.
func parseRelativeGroups(desc string) (num, den []string, ok bool) {
	idx := strings.Index(desc, "relative to")
	if idx < 0 {
		return nil, nil, false
	}
	group := func(part string) []string {
		open := strings.LastIndexByte(part, '(')
		close := strings.IndexByte(part[max(open, 0):], ')')
		if open < 0 || close < 0 {
			return nil
		}
		inner := part[open+1 : open+close]
		var out []string
		for _, tok := range strings.Split(inner, "+") {
			if tok = strings.TrimSpace(tok); tok != "" {
				out = append(out, tok)
			}
		}
		return out
	}
	num = group(desc[:idx])
	den = group(desc[idx:])
	if len(num) == 0 || len(den) == 0 {
		return nil, nil, false
	}
	return num, den, true
}

// answerCompleteRow produces a value for the masked attribute of one
// serialized row — the row-level interaction path of Figure 1.
func (s *Simulated) answerCompleteRow(f promptFields) (string, error) {
	if f.Row == "" {
		return "", fmt.Errorf("fm: complete-row prompt missing Row")
	}
	type pair struct{ k, v string }
	var pairs []pair
	for _, part := range strings.Split(f.Row, ",") {
		kv := strings.SplitN(part, ":", 2)
		if len(kv) != 2 {
			continue
		}
		p := pair{strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])}
		if p.v == "?" || p.k == f.NewFeature {
			continue // the masked attribute itself
		}
		pairs = append(pairs, p)
	}
	feature := strings.ToLower(f.NewFeature)
	if strings.Contains(feature, "density") {
		for _, p := range pairs {
			lk := strings.ToLower(p.k)
			if strings.Contains(lk, "city") || strings.Contains(lk, "state") || strings.Contains(lk, "station") || strings.Contains(lk, "location") {
				return fmt.Sprintf("%g", lookupDensity(p.v)), nil
			}
		}
	}
	// Unknown request: answer confidently anyway, deterministic per row.
	return fmt.Sprintf("%g", hallucinatedValue(f.Row+"|"+f.NewFeature, 0, 100)), nil
}

// sanitizeName makes a column name safe inside generated feature names.
func sanitizeName(name string) string {
	out := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
	return out
}

// quoteIdent renders a column reference for the expression language,
// backticking names the lexer cannot read bare.
func quoteIdent(name string) string {
	for _, r := range name {
		ok := r == '.' || r == '_' || r == '=' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			return "`" + name + "`"
		}
	}
	if name == "" {
		return "``"
	}
	// Bare identifiers cannot start with a digit.
	if name[0] >= '0' && name[0] <= '9' {
		return "`" + name + "`"
	}
	return name
}

// shortHash gives a 6-hex-digit tag for naming sampled features.
func shortHash(s string) string {
	h := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", h[:3])
}

// hashFrac maps a string deterministically to [0,1).
func hashFrac(s string) float64 {
	h := sha256.Sum256([]byte(s))
	u := binary.BigEndian.Uint64(h[:8])
	return float64(u%1_000_000) / 1_000_000
}

func containsStr(list []string, v string) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

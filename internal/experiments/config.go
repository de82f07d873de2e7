// Package experiments implements the paper's evaluation protocol (§4.1) and
// regenerates every table and figure of §4: dataset statistics (Table 3),
// average and median AUC comparisons (Tables 4-5), feature-importance shares
// (Table 6), the operator ablation (Table 7), the feature-level vs row-level
// interaction cost comparison (Figure 1), the efficiency study and the
// feature-description ablation.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"smartfeat/internal/fmgate"
	"smartfeat/internal/ml"
)

// Config controls the shared evaluation protocol.
type Config struct {
	// Seed drives dataset generation, FM sampling and splits.
	Seed int64
	// Models are the downstream classifiers (§4.1's five; default all).
	Models []string
	// TestFrac is the held-out fraction (paper: 25%).
	TestFrac float64
	// MaxTrainRows caps model-training rows. The paper trains sklearn on
	// full data on a laptop; pure-Go model training is capped for
	// tractability — the comparison is unaffected because every method is
	// evaluated under the identical cap.
	MaxTrainRows int
	// MLPEpochs overrides the DNN's training epochs (0 = scaled default).
	MLPEpochs int
	// ForestTrees overrides RF/ET ensemble size (0 = 40).
	ForestTrees int
	// SamplingBudget is SMARTFEAT's per-family sampling budget (paper: 10).
	SamplingBudget int
	// CAAFEIterations is CAAFE's loop length (paper: 10).
	CAAFEIterations int
	// FMErrorRate is the simulated generation-error rate.
	FMErrorRate float64
	// FMCacheSize enables the fmgate completion cache on every
	// gateway-routed FM (LRU entries; 0 disables). Caching only applies to
	// deterministic tasks (fm.CacheableTask); with a nonzero FMErrorRate a
	// cache hit also skips the corresponding error-injection draw, so cached
	// runs are self-consistent but not bit-identical to uncached ones.
	FMCacheSize int
	// FMConcurrency bounds each gateway's in-flight upstream calls
	// (0 = gateway default of 8).
	FMConcurrency int
	// FMStore is a per-cell record/replay shard, installed by the grid
	// runner (internal/grid) from an fmgate.StoreSet: every gateway the cell
	// builds — selector, generator, and each CAAFE session — shares it, so
	// one recorded grid run replays per (dataset × method) cell. A record
	// shard appends every upstream completion; a replay shard becomes each
	// gateway's model (recorded completions, zero cost).
	FMStore *fmgate.Store
	// FMDiskCache is the cross-process tier of the completion cache: a
	// content-addressed read-through index over a shard directory
	// (fmgate.OpenDiskCache), installed on every non-replay gateway so a
	// completion a peer worker already paid for is served from disk at $0.
	// Disk hits carry the recording's replay semantics, so — like a replay
	// FMStore — they reproduce the paying run's outcomes exactly; the field
	// is excluded from Fingerprint because a fully-covered cached run is
	// byte-identical to the run that paid. (A *partially* covering cache
	// directory is rejected up front only by config hash, not coverage, so
	// point it at recordings of the same grid.) Ignored when replaying.
	FMDiskCache *fmgate.DiskCache
	// FMPool routes every gateway's upstream traffic through a resilient
	// backend pool (hedging, circuit breakers, deadline budgets, injected
	// faults) when non-nil with Backends > 0. Transport-only: a pool never
	// changes what a model answers, so — like Workers and FMConcurrency —
	// it is excluded from Fingerprint and a chaos replay of a recorded run
	// still matches the recording's config hash.
	FMPool *fmgate.PoolSpec
	// Workers bounds the evaluation parallelism at two levels: the grid
	// runner's cell pool, and inside each cell the per-model training
	// (EvaluateFrame) and CAAFE's per-model sessions. Forests additionally
	// run their own GOMAXPROCS tree pool. The bound is per level, not
	// global, so peak concurrency can reach the product of the levels.
	// 0 means GOMAXPROCS per level; 1 forces fully sequential execution,
	// which is also how to get uncontended efficiency timings. Results are
	// bit-identical at any setting because every cell derives its
	// randomness from fixed per-cell seeds.
	Workers int
}

// DefaultConfig is the full evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Seed:            2024,
		Models:          append([]string(nil), ml.ModelNames...),
		TestFrac:        0.25,
		MaxTrainRows:    4000,
		SamplingBudget:  10,
		CAAFEIterations: 10,
		FMErrorRate:     0.02,
	}
}

// QuickConfig is a scaled-down configuration for tests and benchmarks.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxTrainRows = 1200
	cfg.MLPEpochs = 6
	cfg.ForestTrees = 15
	cfg.SamplingBudget = 6
	cfg.CAAFEIterations = 5
	return cfg
}

// Fingerprint hashes the configuration fields that determine experiment
// results and FM traffic: seeds, budgets, model lists, caps and error rates.
// Scheduling-only knobs (Workers, FMConcurrency) and store wiring are
// excluded — they change wall-clock behaviour, never results. The grid
// engine stamps this hash into run and recording manifests so a resumed run
// or a replayed recording fails loudly when the configuration drifted
// instead of mixing incompatible cells.
func (cfg Config) Fingerprint() string {
	semantic := struct {
		Seed            int64
		Models          []string
		TestFrac        float64
		MaxTrainRows    int
		MLPEpochs       int
		ForestTrees     int
		SamplingBudget  int
		CAAFEIterations int
		FMErrorRate     float64
		FMCacheSize     int
	}{
		Seed:            cfg.Seed,
		Models:          cfg.Models,
		TestFrac:        cfg.TestFrac,
		MaxTrainRows:    cfg.MaxTrainRows,
		MLPEpochs:       cfg.MLPEpochs,
		ForestTrees:     cfg.ForestTrees,
		SamplingBudget:  cfg.SamplingBudget,
		CAAFEIterations: cfg.CAAFEIterations,
		FMErrorRate:     cfg.FMErrorRate,
		FMCacheSize:     cfg.FMCacheSize,
	}
	b, err := json.Marshal(semantic)
	if err != nil {
		// Only plain values above; Marshal cannot fail on them.
		panic(err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// Method names in the paper's Table 4 row order.
const (
	MethodInitial      = "Initial AUC"
	MethodSmartfeat    = "SMARTFEAT"
	MethodCAAFE        = "CAAFE"
	MethodFeaturetools = "Featuretools"
	MethodAutoFeat     = "AutoFeat"
)

// Methods lists the comparison methods in table order (initial excluded).
func Methods() []string {
	return []string{MethodSmartfeat, MethodCAAFE, MethodFeaturetools, MethodAutoFeat}
}

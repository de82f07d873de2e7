GO ?= go
PKGS := ./...
# Kernel-level microbenchmarks (tree/forest/linear/MLP fits, MLP predict, ColMatrix,
# group-by, the per-prompt agenda render).
KERNEL_BENCH := BenchmarkTreeFit|BenchmarkForestFit|BenchmarkExtraTreesFit|BenchmarkHistogramSplit|BenchmarkLogisticFit|BenchmarkMLPFit|BenchmarkMLPPredict|BenchmarkMatrixTakeRows|BenchmarkColMatrix|BenchmarkRowMajorMatrix|BenchmarkDropNANoNulls|BenchmarkSeriesStd|BenchmarkGroupKeys|BenchmarkAgendaRender
KERNEL_PKGS := ./internal/ml ./internal/dataframe ./internal/core

.PHONY: test race check bench bench-kernel bench-grid bench-json bench-cpu fmt fmt-check vet grid-workers chaos obs-check cache-check serve-check sim-soak

test:
	$(GO) build $(PKGS)
	$(GO) test $(PKGS)

# The race suite runs under a CPU matrix: the worker pools (grid runner,
# parallel CAAFE, fmgate Submit, forest tree fits) degenerate to sequential
# order on the 1-vCPU dev box, so -cpu 4 is what actually exercises their
# interleavings. internal/e2e is left out: its checks exercise separate
# processes the detector cannot see into, and -cpu 1,4 would run each twice.
race:
	$(GO) test -race -cpu 1,4 $$($(GO) list $(PKGS) | grep -v /internal/e2e)

# Pre-commit gate: formatting, static analysis, then the full suite under
# the race detector across the CPU matrix (the fmgate gateway, the parallel
# evaluation harness and the shared histogram/presort caches are all
# concurrency-bearing — run this before every commit).
check: fmt-check vet race

# Full benchmark sweep: every paper table/figure plus the kernel benches.
bench:
	$(GO) test -bench . -benchmem -run xxx $(PKGS)

# Just the hot-path kernel benches (fast; use for before/after comparisons).
bench-kernel:
	$(GO) test $(KERNEL_PKGS) -bench '$(KERNEL_BENCH)' -benchmem -run xxx -count 3

# Grid-engine overhead benches: artifact/manifest (de)serialization, a full
# 40-cell resume pass, record-shard setup, the FM backend pool's per-call
# transport overhead, and the telemetry layer's hot paths (a disabled span
# must stay at 0 allocs; counter increments are one atomic add). Keeps the
# run engine's fixed costs visible in the perf trajectory (they must stay
# negligible next to cell compute).
GRID_BENCH := BenchmarkArtifactWrite|BenchmarkArtifactRead|BenchmarkManifestSave|BenchmarkGridResume|BenchmarkStoreSetShard|BenchmarkLeaseClaim|BenchmarkPoolComplete|BenchmarkSpanOverhead|BenchmarkRegistryInc|BenchmarkCacheHit
bench-grid:
	$(GO) test ./internal/grid ./internal/fmgate ./internal/obs -bench '$(GRID_BENCH)' -benchmem -run xxx -count 3

# Machine-readable perf trajectory: the kernel and grid bench sweeps piped
# through tools/benchjson into BENCH_kernel.json / BENCH_grid.json. Each
# sweep is APPENDED to the committed trajectory (a JSON array, one report
# per sweep with raw runs plus per-benchmark medians), so the files
# accumulate history instead of overwriting it. CI runs this on every push
# and uploads both files as workflow artifacts. The tmp-then-mv dance keeps
# the append source readable while the new array is being produced.
bench-json:
	$(GO) test $(KERNEL_PKGS) -bench '$(KERNEL_BENCH)' -benchmem -run xxx -count 3 | tee /dev/stderr | $(GO) run ./tools/benchjson -append BENCH_kernel.json > BENCH_kernel.json.tmp && mv BENCH_kernel.json.tmp BENCH_kernel.json
	$(GO) test ./internal/grid ./internal/fmgate ./internal/obs -bench '$(GRID_BENCH)' -benchmem -run xxx -count 3 | tee /dev/stderr | $(GO) run ./tools/benchjson -append BENCH_grid.json > BENCH_grid.json.tmp && mv BENCH_grid.json.tmp BENCH_grid.json

# CPU profile of forest training; inspect with `go tool pprof cpu.out`.
bench-cpu:
	$(GO) test ./internal/ml -bench 'BenchmarkForestFit' -run xxx -cpuprofile cpu.out -benchtime 5s
	@echo "profile written to cpu.out (and ml.test); open with: go tool pprof cpu.out"

# End-to-end checks over real processes, one subtest of internal/e2e each
# against a single recorded golden (see that package's doc). -count=1: the
# test cache cannot see the binaries the harness builds.
E2E := $(GO) test ./internal/e2e -count=1 -v -run
grid-workers:
	$(E2E) '^TestE2E$$/^grid_workers$$'
chaos:
	$(E2E) '^TestE2E$$/^chaos$$'
cache-check:
	$(E2E) '^TestE2E$$/^cache$$'
obs-check:
	$(E2E) '^TestE2E$$/^obs$$'
serve-check:
	$(E2E) '^TestE2E$$/^serve$$'
SEEDS ?= 3
sim-soak:
	$(E2E) '^TestE2E$$/^sim_soak$$' -seeds $(SEEDS) -load-bench $(CURDIR)/BENCH_load.json

fmt:
	gofmt -l -w .

# Fail (listing the offenders) when any file needs gofmt; the CI check job
# and `make check` gate on this.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet $(PKGS)

GO ?= go

.PHONY: check fmt vet ctxvet build test race determinism shard-determinism meter-determinism fork-determinism pipeline obs journal serve learn bench bench-compare

# The full pre-commit gate: formatting and static checks, build, the
# race-enabled test suite (shuffled to flush test-order dependencies), the
# multi-GOMAXPROCS fitting-kernel, sharded-engine, sharded-monitoring and
# warm-start-fork determinism checks, the trace-pipeline gate, the
# observability-layer, run-journal, estimation-service and
# continuous-learning gates.
check: fmt vet ctxvet build race determinism shard-determinism meter-determinism fork-determinism pipeline obs journal serve learn

# Every Go file is gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# Context convention: new exported Run*/Fit* entry points in internal/exps
# and internal/serve must take context.Context first (legacy wrappers are
# allowlisted in the script).
ctxvet:
	./scripts/ctxvet.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# The parallel LMS kernel promises bit-identical fits at every worker
# count; race-check that contract at several GOMAXPROCS values. OLS,
# qrSolve, FactorOLS and BootstrapOLS (which factor each design once and
# solve it many times, on one goroutine) promise bits identical to their
# test-only reference implementations over a seeded corpus.
determinism:
	$(GO) test -run TestLMSDeterminism -race -cpu 1,2,4 ./internal/stats/
	$(GO) test -race -run 'TestOLSBitIdenticalToReference|TestFactorOLSBitIdenticalToReference|TestBootstrapOLSBitIdenticalToReference|TestBitIdentCorpusHitsReplicateFallback' ./internal/stats/

# The sharded engine promises byte-identical traces at every shard count;
# race-check that contract (sample-level equality and shard-independent
# decimation in internal/xen, the golden CSV fixture in internal/trace)
# across the Shards x GOMAXPROCS matrix.
shard-determinism:
	$(GO) test -race -cpu 1,2,8 -run 'TestShardDeterminism|TestSetShardsMidRun|TestEngineStateRoundTrip|TestShardedStepAllocationFree|TestFilteredDecimationShardInvariant' ./internal/xen/
	$(GO) test -race -cpu 1,2,8 -run TestGoldenTraceDeterminism ./internal/trace/

# The monitoring pipeline promises byte-identical measured output at every
# shard count: the full-chain equivalence test, the step-contract units,
# the golden metered-campaign fixture and the irregular-chain fixture
# (shards {1,2,8}), race-checked across the GOMAXPROCS matrix.
meter-determinism:
	$(GO) test -race -cpu 1,2,8 -run 'TestShardedPipelineMatchesSerial|TestShardedMeterActuallyShards|TestShardedIrregularSegmentsDefer|TestMeteredCampaignGolden|TestIrregularChainsGolden' ./internal/monitor/
	$(GO) test -race -cpu 1,2,8 ./internal/sampling/

# Warm-start forking gate: a cell forked from a warmed prefix emits a
# measured trace byte-identical to the same cell simulated from scratch, at
# every shard count, race-checked across the GOMAXPROCS matrix — plus the
# zero-alloc restore bound, the prefix-cache singleflight, and the
# campaign-level equivalence proofs (prediction and micro grids).
fork-determinism:
	$(GO) test -race -cpu 1,2,8 -run 'TestForkedRunEquivalence|TestForkStateHashStable|TestRestoreStateIntoAllocs|TestForkCacheLRU|TestForkCacheSingleflight|TestForkCacheBuildErrorNotCached' ./internal/xen/
	$(GO) test -race -cpu 1,2,8 -run 'TestPredictionForkedEquivalence|TestRunMicroWarmupForkedEquivalence|TestRunForkGridCtxSharing' ./internal/exps/

# Trace-pipeline safety net: the golden-trace fixture (byte-identical CSV
# through the meter + fast writer) and the writer's encoding/csv
# equivalence, both under the race detector.
pipeline:
	$(GO) test -race -run 'TestGoldenTrace|TestCSVSinkMatchesEncodingCSV' ./internal/trace/

# Observability gate: the metrics registry's lock-free concurrency under
# the race detector, the Prometheus/span golden tests, and the two
# allocation bounds (disabled: 0-alloc engine step preserved; enabled:
# <= 2 allocs/step).
obs:
	$(GO) test -race ./internal/obs/...
	$(GO) test -run 'TestObservedCampaignStepAllocs|TestMeteredCampaignStepAllocs|TestDebugServerEndToEnd' .

# Run-journal gate: the golden journal fixture must be byte-identical at
# shards {1,2,8} across the GOMAXPROCS matrix, telemetry must not perturb
# measured output, and the two allocation pins must hold (journaling off:
# the engine step stays 0-alloc; journaling + profiling on: bounded).
journal:
	$(GO) test -race -cpu 1,2,8 -run 'TestJournalCampaignGolden|TestJournalDoesNotPerturb' ./internal/monitor/
	$(GO) test -run 'TestJournaledCampaignStepAllocs' .

# Estimation-service gate: the concurrent e2e suite (saturation/429,
# cache, drain, served-fit determinism) and the cancellation-bound tests,
# all under the race detector.
serve:
	$(GO) test -race ./internal/serve/
	$(GO) test -race -run 'TestRunMicroContextCancelsWithinOneStep|TestFitModelContextCancels|TestRunParallelFailFast|TestRunParallelLowestIndexError' ./internal/exps/

# Continuous-learning gate: the streaming/refit suite under the race
# detector — the unified error envelope on every 4xx/5xx path, the
# ingest partial-accept contract, idle-tenant eviction, the deterministic
# seed/keep/swap drift lifecycle, and the hot-swap torn-read hammer
# (readers must never observe a model whose coefficients do not hash to
# its advertised identity) — plus the drift rule's own unit suite, and
# the refit's fitting stages: Train and CompareOnWindow bit-identical to
# their test-only per-target/per-replicate reference implementations, and
# their allocation pins.
learn:
	$(GO) test -race -cpu 1,4 -run 'TestServeErrorEnvelope|TestServeIngestContract|TestServeTenantEviction|TestServeRefitLifecycle|TestServeRefitDeterminism|TestServeHotSwapConsistency|TestServeRefitLoop|TestOptionsNormalize|TestServeHealthzVersion' ./internal/serve/
	$(GO) test -race -run 'TestCompareOnWindow|TestTrainBitIdenticalToReference|TestTrainSingleAllocs' ./internal/core/

# Hot-path benchmarks (engine step + sample pipeline + fitting/selection
# kernels) with allocation reporting; the parsed results land in
# BENCH_stats.json so the next PR has a perf trajectory to compare against.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkCampaignStepMetered|BenchmarkCampaignWarmStart|BenchmarkMeter$$|BenchmarkCSVSink|BenchmarkLMSFit|BenchmarkSelectKth|BenchmarkOLSFit|BenchmarkCDF|BenchmarkServeRefit|BenchmarkTrain$$|BenchmarkCompareOnWindow|BenchmarkBootstrapOLS' -benchmem . | $(GO) run ./cmd/benchjson -out BENCH_stats.json

# Re-run the metering-path and refit-path benchmarks (the refit and its
# two fitting stages, plus the bootstrap the report's coefficient CIs run)
# and diff them against the committed BENCH_stats.json baseline: a >20%
# ns/op regression in any of them fails the target, as does the journaled step's overhead over
# the observed step growing by >20 percentage points (the -overhead pair
# is a within-file ratio, so it survives an _env mismatch). Comparable
# absolute numbers need a comparable machine, so an _env mismatch with the
# committed baseline skips the delta table (benchjson prints SKIPPED)
# instead of reporting machine noise as a regression.
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineCampaignStep|BenchmarkCampaignStepMetered|BenchmarkCampaignWarmStart|BenchmarkEngineDatacenterMetered|BenchmarkMeter$$|BenchmarkServeRefit|BenchmarkTrain$$|BenchmarkCompareOnWindow|BenchmarkBootstrapOLS' -benchmem . | $(GO) run ./cmd/benchjson -out /tmp/bench_new.json
	$(GO) run ./cmd/benchjson -compare -threshold 20 -skip-env-mismatch -overhead 'BenchmarkEngineCampaignStepObserved,BenchmarkEngineCampaignStepJournaled' BENCH_stats.json /tmp/bench_new.json

GO ?= go

.PHONY: check fmt vet ctxvet build test race determinism shard-determinism meter-determinism fork-determinism pipeline obs journal serve learn fuzz-smoke bench bench-compare loc

# The full pre-commit gate: formatting and static checks, build, the
# race-enabled test suite (shuffled to flush test-order dependencies), the
# multi-GOMAXPROCS fitting-kernel, sharded-engine, sharded-monitoring and
# warm-start-fork determinism checks, the trace-pipeline gate, the
# observability-layer, run-journal, estimation-service and
# continuous-learning gates, and a short run of every fuzz target.
check: fmt vet ctxvet build race determinism shard-determinism meter-determinism fork-determinism pipeline obs journal serve learn fuzz-smoke

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
# test-only reference implementations over a seeded corpus, as do FFT,
# PowerSpectrum and DominantPeriod (twiddle tables, in-place transform).
# simrand's generator emits math/rand's stream bit for bit, with
# math/rand's draw counts, over 1,020 seeds and every Source method, and
# its seeding step matches Schrage's form on every input. The report's
# fan-outs promise the serial bits at every GOMAXPROCS: CoefficientCIs
# (one goroutine per target) and HeteroCorpus (one job per campaign).
# The seed-1 paper-size report must equal the committed REPORT.md.
determinism:
	$(GO) test -race -run 'TestStreamMatchesMathRand|TestSetStateContinuation|TestSeedrandMatchesSchrage' ./internal/simrand/
	$(GO) test -run TestLMSDeterminism -race -cpu 1,2,4 ./internal/stats/
	$(GO) test -race -run 'TestOLSBitIdenticalToReference|TestFactorOLSBitIdenticalToReference|TestBootstrapOLSBitIdenticalToReference|TestBitIdentCorpusHitsReplicateFallback' ./internal/stats/
	$(GO) test -race -cpu 1,2,8 -run 'TestFFTBitIdenticalToReference|TestDominantPeriodBitIdenticalToReference' ./internal/stats/
	$(GO) test -race -cpu 1,2,8 -run TestCoefficientCIsMatchesPerTargetBootstrap ./internal/core/
	$(GO) test -race -cpu 1,2,8 -run TestHeteroCorpusMatchesSerial ./internal/exps/
	$(GO) test -race -cpu 1,2 -run TestReportGolden .

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
# (shards {1,2,8}), race-checked across the GOMAXPROCS matrix. The
# one-pass Meter and Collector must also equal the deferred-replay machines
# they replaced (kept in reference_test.go) over generated campaigns whose
# filters split PM groups, with shards delivered concurrently.
meter-determinism:
	$(GO) test -race -cpu 1,2,8 -run 'TestShardedPipelineMatchesSerial|TestShardedMeterActuallyShards|TestShardedIrregularSegmentsDefer|TestCollectorHostlessGroupShardInvariant|TestMeteredCampaignGolden|TestIrregularChainsGolden|TestOnePassMatchesReplay' ./internal/monitor/
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
# their allocation pins. A fit with a non-finite coefficient is a refit
# error, and a 32-line one-tenant ingest batch stays at <= 4 allocations.
learn:
	$(GO) test -race -cpu 1,4 -run 'TestServeErrorEnvelope|TestServeIngestContract|TestServeTenantEviction|TestServeRefitLifecycle|TestServeRefitNonFinite|TestServeRefitDeterminism|TestServeHotSwapConsistency|TestServeRefitLoop|TestOptionsNormalize|TestServeHealthzVersion|TestIngestBatchAllocs' ./internal/serve/
	$(GO) test -race -run 'TestCompareOnWindow|TestTrainBitIdenticalToReference|TestTrainSingleAllocs' ./internal/core/

# Fuzz smoke: each fuzz target explores for 20 s past its committed seed
# corpus (testdata/fuzz/<Target>, which plain go test replays).
# FuzzIngestLine holds the hand-written ingest line decoder to the
# encoding/json decode it replaced, bit for bit; FuzzParse holds the
# scenario decoder to its error and trailing-data contract. go test
# fuzzes one target per call. A crasher lands in the corpus directory and
# becomes a regression test.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzIngestLine$$' -fuzztime 20s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 20s ./internal/scenario/

# Hot-path benchmarks (engine step + sample pipeline + fitting/selection
# kernels + the report's predictor and coefficient CIs + the service's
# ingest path) with allocation reporting; the parsed results land in
# BENCH_stats.json so the next PR has a perf trajectory to compare against. BenchmarkServeRefit runs in a
# second call at a fixed 4 iterations: its first sweep allocates once, so
# its allocs/op depends on the iteration count. benchjson reads both
# outputs as one stream.
bench:
	{ $(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkCampaignStepMetered|BenchmarkCampaignWarmStart|BenchmarkMeter$$|BenchmarkCSVSink|BenchmarkLMSFit|BenchmarkSelectKth|BenchmarkOLSFit|BenchmarkCDF|BenchmarkTrain$$|BenchmarkCompareOnWindow|BenchmarkBootstrapOLS|BenchmarkCoefficientCIs|BenchmarkDominantPeriod|BenchmarkAblationPredictor|BenchmarkServeIngest' -benchmem . && \
	  $(GO) test -run '^$$' -bench '^BenchmarkServeRefit$$' -benchtime 4x -benchmem . ; } | $(GO) run ./cmd/benchjson -out BENCH_stats.json

# Re-run the metering-path and refit-path benchmarks (the refit and its
# two fitting stages, plus the bootstrap the report's coefficient CIs run),
# the report's coefficient CIs, dominant-period search and scaling
# experiment, and the ingest path, and diff them against the committed
# BENCH_stats.json baseline: a >20% ns/op regression in any of them fails
# the target, as does an allocs/op rise past max(2, 1%) of the baseline,
# and the journaled step's overhead over the observed step growing by >20
# percentage points (allocs/op and the -overhead pair's within-file ratio
# are host-free, so they survive an _env mismatch). BenchmarkServeRefit
# runs at the fixed 4 iterations `make bench` records it at. Comparable
# absolute ns/op needs a comparable machine, so an _env mismatch with the
# committed baseline skips the ns/op delta table (benchjson prints
# SKIPPED) instead of reporting machine noise as a regression.
bench-compare:
	{ $(GO) test -run '^$$' -bench 'BenchmarkEngineCampaignStep|BenchmarkCampaignStepMetered|BenchmarkCampaignWarmStart|BenchmarkEngineDatacenterMetered|BenchmarkMeter$$|BenchmarkTrain$$|BenchmarkCompareOnWindow|BenchmarkBootstrapOLS|BenchmarkCoefficientCIs|BenchmarkDominantPeriod|BenchmarkAblationPredictor|BenchmarkServeIngest' -benchmem . && \
	  $(GO) test -run '^$$' -bench '^BenchmarkServeRefit$$' -benchtime 4x -benchmem . ; } | $(GO) run ./cmd/benchjson -out /tmp/bench_new.json
	$(GO) run ./cmd/benchjson -compare -threshold 20 -skip-env-mismatch -overhead 'BenchmarkEngineCampaignStepObserved,BenchmarkEngineCampaignStepJournaled' BENCH_stats.json /tmp/bench_new.json

# Tracked Go lines outside perfbench/, non-test then test: the net line
# count each change reports, measured the same way every time.
loc:
	@git ls-files -- '*.go' ':!:perfbench/*' | grep -v '_test\.go$$' | xargs cat | wc -l | xargs printf 'non-test %s\n'
	@git ls-files -- '*.go' ':!:perfbench/*' | grep '_test\.go$$' | xargs cat | wc -l | xargs printf 'test     %s\n'

GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test test-cpu vet vet-custom analyze race fuzz bench bench-json bench-serve bench-analyzers bench-compare experiments serve smoke golden-update lint-golden-update fppnlint-golden-update programs-golden-update

all: build vet vet-custom analyze test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The compile pipeline (taskgraph, sched, feas, lint), the
# goroutine-per-processor runtime (plan), the serving layer (serve) and the
# differential harness (integration), tested at 1, 2 and 4 CPUs: the
# runtime's and the server's goroutines interleave differently at each
# GOMAXPROCS, and the pipeline's output must not depend on it either.
TEST_CPU_PKGS = ./internal/taskgraph ./internal/sched ./internal/feas \
	./internal/lint ./internal/serve ./internal/plan ./internal/integration

test-cpu:
	$(GO) test -cpu 1,2,4 $(TEST_CPU_PKGS)

vet:
	$(GO) vet ./...

# Run the repository's own determinism analyzers (internal/analyzers:
# noclock, maporder, nakedgo, plus the interprocedural jobreach and
# planfreeze call-graph passes) over the whole module.
vet-custom:
	$(GO) run ./cmd/fppnlint-go .

# Run the FPPN model linter over every registry application (JSON
# reports on stdout). fppnvet exits 1 if any app has findings — the
# paper apps must stay lint-clean.
analyze:
	$(GO) run ./cmd/fppnvet -all -json

# The runtime and the serving layer run goroutines; every test (including
# the differential determinism harness) must be race-clean.
race:
	$(GO) test -race ./...

# Native fuzz targets; raise FUZZTIME (and FPPN_FUZZ_TRIALS for the
# randomized integration trials) to crank coverage.
fuzz:
	$(GO) test ./internal/rational -fuzz FuzzParseRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rational -run '^$$' -fuzz FuzzRatCmp -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rational -run '^$$' -fuzz FuzzRatNew -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -fuzz FuzzNetworkValidate -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lint -fuzz FuzzLintNeverPanics -fuzztime $(FUZZTIME)
	$(GO) test ./internal/integration -run '^$$' -fuzz FuzzPlanMatchesZeroDelay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/integration -run '^$$' -fuzz FuzzListScheduleMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/integration -run '^$$' -fuzz FuzzStaticBuffersMatchExecuted -fuzztime $(FUZZTIME)
	$(GO) test ./internal/integration -run '^$$' -fuzz FuzzDemandBoundBelowMinProcessors -fuzztime $(FUZZTIME)
	$(GO) test ./internal/integration -run '^$$' -fuzz FuzzLoadMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/integration -run '^$$' -fuzz FuzzFeasSoundVsMinProcessors -fuzztime $(FUZZTIME)
	$(GO) test ./internal/integration -run '^$$' -fuzz FuzzFeasNeverPanics -fuzztime $(FUZZTIME)
	$(GO) test ./internal/integration -run '^$$' -fuzz FuzzHBSoundVsConcurrentTrace -fuzztime $(FUZZTIME)
	$(GO) test ./internal/integration -run '^$$' -fuzz FuzzHBMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/integration -run '^$$' -fuzz FuzzDeriveTickMatchesRational -fuzztime $(FUZZTIME)
	$(GO) test ./internal/integration -run '^$$' -fuzz FuzzPlanRunStateReuse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/integration -run '^$$' -fuzz FuzzMCMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/integration -run '^$$' -fuzz FuzzJobOrderMatchesReference -fuzztime $(FUZZTIME)

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# Machine-readable benchmark record: the full -benchmem run piped through
# cmd/benchjson into name -> {ns/op, B/op, allocs/op} JSON. EXPERIMENTS.md's
# performance tables cite this file.
bench-json:
	$(GO) test -bench . -benchmem -run '^$$' ./... | $(GO) run ./cmd/benchjson -o BENCH_fppn.json

# Regression gate: rerun the benchmarks and diff ns/op against the
# committed record; exits nonzero when any benchmark is more than 25%
# slower than BENCH_fppn.json (tune with -threshold).
bench-compare:
	$(GO) test -bench . -benchmem -run '^$$' ./... | $(GO) run ./cmd/benchjson -compare BENCH_fppn.json

# Refresh only the analyzer-cost benchmark (full-module CheckAll wall
# time) inside the committed record.
bench-analyzers:
	$(GO) test -bench AnalyzersModule -benchmem -run '^$$' ./internal/analyzers | \
		$(GO) run ./cmd/benchjson -merge BENCH_fppn.json -o BENCH_fppn.json

# Refresh only the serving-tier benchmarks (BenchmarkServe*, the direct
# baseline and the digest cost) inside the committed record, leaving the
# rest of BENCH_fppn.json untouched.
bench-serve:
	$(GO) test -bench 'Serve|DirectFMSRunBaseline|ModelDigest' -benchmem -run '^$$' ./internal/serve | \
		$(GO) run ./cmd/benchjson -merge BENCH_fppn.json -o BENCH_fppn.json

# Run the fppnd daemon in the foreground on the default port.
serve:
	$(GO) run ./cmd/fppnd

# End-to-end daemon smoke: start fppnd on a scratch port, wait for
# /healthz, compile + simulate every mix model, check /metrics, then
# SIGTERM and require a clean graceful drain. CI's daemon-smoke job runs
# exactly this.
smoke:
	@set -e; \
	$(GO) build -o /tmp/fppnd ./cmd/fppnd; \
	$(GO) build -o /tmp/fppnload ./cmd/fppnload; \
	/tmp/fppnd -addr 127.0.0.1:7337 & pid=$$!; \
	status=0; \
	/tmp/fppnload -addr http://127.0.0.1:7337 -wait 10s -smoke -mix fms,signal,fft || status=$$?; \
	kill -TERM $$pid; \
	wait $$pid || status=$$?; \
	exit $$status

experiments:
	$(GO) run ./cmd/experiments

# Rewrite the golden task-graph files after an intended derivation change.
golden-update:
	$(GO) test ./internal/export -run Golden -update

# Rewrite the golden fppnvet reports after an intended diagnostics change.
lint-golden-update:
	$(GO) test ./internal/lint -run TestGolden -update

# Rewrite the golden fppnlint-go -json/-sarif reports over the
# planted-bug fixture module after an intended diagnostics change.
fppnlint-golden-update:
	$(GO) test ./cmd/fppnlint-go -run TestGoldenReports -update

# Rewrite the golden standard outputs of cmd/experiments and every
# example after an intended output change.
programs-golden-update:
	$(GO) test . -run TestProgramOutputs -update

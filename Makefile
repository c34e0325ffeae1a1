# Development entry points. CI runs the same steps (see
# .github/workflows/ci.yml); `make bench` records the perf trajectory
# across PRs into a dated JSON file.

DATE := $(shell date +%Y-%m-%d)
BENCHFILE := BENCH_$(DATE).json

# Archived benchmarks run each case for a fixed wall-clock budget instead of
# a single iteration: `-benchtime 1x` recorded one-sample numbers whose
# run-to-run noise drowned any real perf movement (see the iterations: 1
# rows in BENCH_2026-07-28.json). 50ms gives the fast cases (tens of µs)
# thousands of averaged iterations; only the multi-second suite benchmarks
# stay single-shot. Override per invocation: make bench BENCHTIME=200ms.
BENCHTIME ?= 50ms
BENCHCOUNT ?= 1

.PHONY: all build test vet race fuzz examples bench bench-smoke suite suite-shard serve smoke-service

all: vet build test

build:
	go build ./...

# vet also fails when a non-test package imports a frozen test oracle
# (internal/model/modeltest, internal/analysis/analysistest), when a
# tracked Go file is not gofmt-clean, when the benchmark module (bench/,
# its own module, so ./... skips it) does not compile against the tree, and
# when a non-test file on the run path (analyses, the façade, the service,
# the theory checks, the double-cover law, afsim, afsimd) calls the
# all-pairs algo.Diameter.
vet:
	go vet ./...
	go -C bench vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	! go list -f '{{$$p := .ImportPath}}{{range .Imports}}{{$$p}} -> {{.}}{{"\n"}}{{end}}' ./... | grep -E -- '-> .*/(modeltest|analysistest)$$'
	! grep -rnE --include='*.go' --exclude='*_test.go' 'algo\.Diameter\(' internal/analysis internal/sim internal/service internal/theory internal/doublecover cmd/afsim cmd/afsimd

test:
	go test ./...

# race covers every package a CI race step runs, the graph constructors
# and generators among them (streamed gnp draws its skips and fills its
# transpose on goroutines of its own).
race:
	go test -race ./internal/engine/... ./internal/core ./internal/sim ./internal/analysis \
	  ./internal/scenario ./internal/model ./internal/graph/... ./internal/obs ./internal/service \
	  ./internal/specgrammar ./internal/shard ./internal/experiments ./internal/chaos ./cmd/afbench

# fuzz runs the engine-equivalence fuzzer (amnesiac and classic on every
# engine), then the run-request normaliser the service applies to remote
# bodies, then the edge-list reader behind -file and the edgefile graph
# family, then the one-pass row constructor
# that streamed gnp builds through, then the model engine against the
# synchronous engine under the zero-delay adversary and under the static
# schedule (the identity both fate hooks must keep), then the model and
# analysis spec parsers' canonical round trips, then the graph spec
# parser's, since graph specs are what remote callers send most.
fuzz:
	go test -fuzz FuzzEngineEquivalence -fuzztime 30s ./internal/engine/fastengine
	go test -run '^$$' -fuzz FuzzRunRequest -fuzztime 10s ./internal/service
	go test -run '^$$' -fuzz FuzzReadEdgeList -fuzztime 10s ./internal/graph
	go test -run '^$$' -fuzz FuzzRowStream -fuzztime 10s ./internal/graph
	go test -run '^$$' -fuzz FuzzZeroDelayAdversaryEquivalence -fuzztime 10s ./internal/model
	go test -run '^$$' -fuzz FuzzStaticScheduleEquivalence -fuzztime 10s ./internal/model
	go test -run '^$$' -fuzz FuzzModelParse -fuzztime 10s ./internal/model
	go test -run '^$$' -fuzz FuzzAnalysisParse -fuzztime 10s ./internal/analysis
	go test -run '^$$' -fuzz FuzzGenParse -fuzztime 10s ./internal/graph/gen

# examples runs every program under examples/ and fails on the first
# non-zero exit. Building them is not enough: a program that looks a
# protocol up by name fails only at run time if it does not link the
# package registering it.
examples:
	@for dir in examples/*/; do \
	  echo "go run ./$$dir"; \
	  go run ./$$dir > /dev/null || exit 1; \
	done

# bench runs the full benchmark suite and archives it as structured JSON
# (one {"name", "ns_per_op", "allocs_per_op", metrics...} object per
# benchmark) so successive PRs can diff the trajectory. The raw output goes
# through a temp file so a failing benchmark fails the target instead of
# being swallowed by the pipe.
bench:
	go test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./... > $(BENCHFILE).raw
	./scripts/benchjson.sh < $(BENCHFILE).raw > $(BENCHFILE)
	@rm -f $(BENCHFILE).raw
	@echo wrote $(BENCHFILE)

# bench-smoke only proves every benchmark still runs; 1x is fine for that.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...

# serve boots the simulation daemon locally (see internal/service/README.md
# for the endpoints and a curl quickstart).
serve:
	go run ./cmd/afsimd -addr :8080

# smoke-service boots afsimd, exercises /healthz, /v1/registry, and a
# streamed /v1/run, then SIGTERMs it and asserts a clean drain.
smoke-service:
	./scripts/servicesmoke.sh

# suite runs a tiny scenario matrix (3 graph families x 2 protocols x 3
# engines including bitset, 2 seeds) through the JSONL sink over an
# 8-worker pool — the
# end-to-end smoke test of the graph-spec registry, the scenario layer, and
# the afbench suite mode. The same matrix then reruns (race-enabled) under
# deterministic chaos injection — 15% of runs hit an injected error, panic,
# or stall and are retried with backoff — and scripts/suitediff.sh asserts
# the two outputs are identical after order-normalisation: the differential
# chaos gate. Two further matrices exercise the execution-model axis (sync,
# asynchronous adversaries, dynamic schedules including message loss and
# crashes; amnesiac only, since non-sync models run only that protocol) and
# the analyses axis (streaming coverage+termination+bipartite metrics
# flattened into CSV columns). CI
# runs all of it on every push, and `go test ./internal/scenario` asserts
# that metric columns are identical under parallel and sequential execution.
SUITE_MATRIX := -graphs "grid:rows=4,cols=5;cycle:n=9;prefattach:n=24,m=2" \
	  -protocols amnesiac,classic \
	  -engines sequential,fast,bitset \
	  -seeds 1,2 -workers 8 -format jsonl

# suite-shard is the distributed face of the same gate: a coordinator
# (cmd/afshard) partitions the matrix into lease groups, two external worker
# processes execute them under chaos injection, one worker is SIGKILLed while
# holding a lease (its group is stolen after the TTL), and
# scripts/suitediff.sh asserts the merged gzip output is byte-identical to a
# single-process afbench run of the same matrix.
suite-shard:
	./scripts/shardsmoke.sh

suite:
	go run ./cmd/afbench -suite $(SUITE_MATRIX) -out /tmp/suite_clean.jsonl
	go run -race ./cmd/afbench -suite $(SUITE_MATRIX) \
	  -chaos "chaos:rate=0.15,kinds=err|panic|stall,seed=7,stall=100ms" \
	  -retries 6 -backoff 5ms -timeout 60s \
	  -out /tmp/suite_chaos.jsonl
	./scripts/suitediff.sh /tmp/suite_clean.jsonl /tmp/suite_chaos.jsonl
	@rm -f /tmp/suite_clean.jsonl /tmp/suite_chaos.jsonl
	go run ./cmd/afbench -suite \
	  -graphs "cycle:n=9;grid:rows=4,cols=5" \
	  -models "sync;adversary:collision;adversary:uniform:extra=2;schedule:blink:period=2,phase=1;schedule:alternating;schedule:static;schedule:loss:p=0.1;schedule:crash:nodes=1,round=2" \
	  -seeds 1,2 -workers 8 -maxrounds 4096 -format jsonl
	go run ./cmd/afbench -suite \
	  -graphs "grid:rows=4,cols=5;cycle:n=9;prefattach:n=24,m=2" \
	  -models "sync;schedule:static" \
	  -analyses "coverage;termination;bipartite;quantiles:metric=messages" \
	  -seeds 1,2 -workers 8 -format csv

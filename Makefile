GO ?= go

.PHONY: all build vet fmt-check test race figures-smoke shards-golden fuzz bench bench-check perfbench-check cover check clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails (listing the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# race runs the whole suite under the race detector — chaos scenarios and
# the sim-vs-emu cross-validation included — with shuffled test order so
# inter-test state leaks surface. This is the bar CI holds every change to.
race:
	$(GO) test -race -shuffle=on ./...

# figures-smoke runs the parallel figure-sweep determinism and golden
# tests under the race detector at -j 8: a tiny grid, but it exercises
# the worker pool, the shared shortest-path cache, the progress mux, and
# the byte-identical-tables invariant end to end.
figures-smoke:
	$(GO) test -race -count=1 \
		-run 'TestSweep|TestGolden|TestRunParallelFlagsMatchSequential' \
		./internal/experiment ./cmd/mayflower-sim

# shards-golden proves the sharded control plane is a byte-identical
# drop-in at -shards 1: the Figure 4/6b/7/9 pipelines rerun through the
# flowctl single-shard plane and must reproduce the committed golden
# tables byte for byte, and the flowctl conformance suite (ownership,
# digest staleness, epoch failover) runs at -race on top.
shards-golden:
	$(GO) test -race -count=1 \
		-run 'TestGoldenShards1ByteIdentity|TestGoldenShardSweep|TestShardSweepWorkerInvariance|TestShardedRunCompletes' \
		./internal/experiment
	$(GO) test -race -count=1 ./internal/flowctl

# cover runs the suite with coverage (-short: the timing-sensitive paced
# emulation tests distort under instrumentation and are covered by the race
# job), writes the profile to cover.out and the per-package summary plus
# total to cover.txt. CI uploads both as a workflow artifact.
cover:
	$(GO) test -short -coverprofile=cover.out -covermode=atomic ./... > cover.txt
	@cat cover.txt
	$(GO) tool cover -func=cover.out | tail -1 | tee -a cover.txt

# fuzz gives each fuzz target a short budget beyond its seed corpus.
fuzz:
	$(GO) test -fuzz=FuzzAllocate -fuzztime=30s ./internal/maxmin
	$(GO) test -fuzz=FuzzSharesWithNewFlow -fuzztime=30s ./internal/maxmin

# bench runs the hot-path selection/churn/replication/RPC benchmarks and
# records the result in BENCH_selection.json, the committed performance
# baseline for the incremental allocator, the write path, and the
# control-plane session layer.
bench:
	$(GO) test -run '^$$' -bench '^BenchmarkSelect$$|^BenchmarkSelectSharded$$|^BenchmarkDigestMerge$$|^BenchmarkNetsimChurn$$|^BenchmarkSweepFigure6b$$|^BenchmarkAppendReplicated$$|^BenchmarkRPCRoundTrip$$|^BenchmarkRPCPooledFanout$$|^BenchmarkLookupCached$$|^BenchmarkLookupBatchValidate$$' \
		-benchmem -timeout 0 ./internal/flowserver ./internal/flowctl ./internal/netsim ./internal/experiment ./internal/dataserver ./internal/rpc ./internal/client ./internal/nameserver \
		| $(GO) run ./cmd/bench2json > BENCH_selection.json
	@cat BENCH_selection.json

# bench-check reruns the hot-path benchmarks and fails if any of them
# regressed more than 20% ns/op (or grew allocs/op) against the committed
# BENCH_selection.json baseline. Runs at the same default 1s benchtime the
# baseline was recorded with — shorter runs shrink N enough that one-time
# warm-up allocations tip the allocs/op average. CI's bench-smoke job
# runs this.
bench-check:
	$(GO) test -run '^$$' -bench '^BenchmarkSelect$$|^BenchmarkSelectSharded$$|^BenchmarkDigestMerge$$|^BenchmarkNetsimChurn$$|^BenchmarkSweepFigure6b$$|^BenchmarkAppendReplicated$$|^BenchmarkRPCRoundTrip$$|^BenchmarkRPCPooledFanout$$|^BenchmarkLookupCached$$|^BenchmarkLookupBatchValidate$$' \
		-benchmem -timeout 0 ./internal/flowserver ./internal/flowctl ./internal/netsim ./internal/experiment ./internal/dataserver ./internal/rpc ./internal/client ./internal/nameserver \
		| $(GO) run ./cmd/bench2json -compare BENCH_selection.json -max-regress 0.20

# perfbench-check vets and short-tests the end-to-end benchmark, a nested
# module (perfbench/go.mod, replace ../) that `go test ./...` never
# builds: a dataserver or client API change that breaks the benchmark
# fails here instead of at its next run.
perfbench-check:
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off GOWORK=off $(GO) vet ./... && \
		GOFLAGS=-mod=mod GOPROXY=off GOWORK=off $(GO) test -short ./...

check: build vet fmt-check race

clean:
	$(GO) clean ./...

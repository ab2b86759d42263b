GO ?= go

.PHONY: all build test race vet fuzz bench bench-micro bench-record bench-guard profile-kernel trace-demo bench-module check clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Everything under the race detector: the parallel sweep engine spans
# experiments, resilience, telemetry and the CLIs.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Short fuzzing smoke over the trace parsers and the partition-finder
# differential oracle; CI-friendly budget.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run NONE -fuzz FuzzReadSWF -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run NONE -fuzz FuzzReadCSV -fuzztime $(FUZZTIME) ./internal/failure
	$(GO) test -run NONE -fuzz FuzzFinderEquivalence -fuzztime $(FUZZTIME) ./internal/partition/oracle
	$(GO) test -run NONE -fuzz FuzzSnapshotRoundTrip -fuzztime $(FUZZTIME) ./internal/snapshot

# Full benchmark sweep (figure regeneration + ablations); minutes.
bench:
	$(GO) test -run NONE -bench . -benchtime 1x .

# Just the scheduling-cost microbenchmarks recorded in EXPERIMENTS.md.
bench-micro:
	$(GO) test -run NONE -bench 'BenchmarkSchedulerDecision|BenchmarkFinderAlgorithms' .

# Bench-history pipeline (bench/BENCH_NNNN.json, highest = baseline).
# bench-record appends a new committed snapshot; bench-guard compares a
# fresh run against the baseline and fails on >25% regressions — the
# same guard CI runs.
bench-record:
	./scripts/bench-history.sh record

bench-guard:
	./scripts/bench-history.sh compare

# CPU + allocation profile pair for the kernel steady-state benchmark.
# Inspect with `go tool pprof bgsched.test cpu.kernel.pprof` (or
# mem.kernel.pprof with -sample_index=alloc_objects for the allocation
# view; the alloc profile records everything including untimed setup,
# unlike the benchmark's allocs/op).
profile-kernel:
	$(GO) test -run NONE -bench BenchmarkKernelSteadyState -benchtime 20000x \
		-cpuprofile cpu.kernel.pprof -memprofile mem.kernel.pprof .

# Render the six-point golden sweep's causal traces into one
# Chrome-loadable trace (open chrome://tracing or https://ui.perfetto.dev
# and load trace-demo.json).
trace-demo:
	$(GO) run ./cmd/bgsweep -fig golden -trace-dir trace-demo
	cat trace-demo/*.trace.ndjson | $(GO) run ./cmd/bgtrace spans -in - -chrome trace-demo.json
	@echo "wrote trace-demo.json ($$(wc -c < trace-demo.json) bytes); load it in chrome://tracing or ui.perfetto.dev"

# The benchmark module (simbench/) is its own Go module (replace
# bgsched => ../), so the root ./... never builds it; this catches a
# renamed program name it uses.
bench-module:
	cd simbench && $(GO) vet ./... && $(GO) test ./...

# The same steps, in the same order, as CI's test job.
check: build vet test bench-module race fuzz

clean:
	$(GO) clean ./...
	rm -f cpu.kernel.pprof mem.kernel.pprof bgsched.test

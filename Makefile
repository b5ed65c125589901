# Developer entry points. The tier-1 verification flow is:
#
#     make check        # build + vet + fmt + tests + race + scenario library + bench build
#
# which is what CI (and reviewers) should run before merging. The scenario
# library gate alone is `make scenario-check`.

GO ?= go

.PHONY: all build test race vet fmt-check scenario-check bench-check chaos check bench bench-engine baseline baseline-quick baseline-scale fuzz cover identity clean

# Per-target fuzzing budget for `make fuzz`.
FUZZTIME ?= 30s

all: check

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 10m ./...

# The trial runner executes experiment trials on a worker pool; the race
# detector is part of the standard flow, not an optional extra.
race:
	$(GO) test -race -timeout 10m ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean; prints the offenders.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Scenario library gate: every committed scenario must validate, and every
# run's postcondition assertions must hold (see SCENARIOS.md). The whole
# library executes in well under a second, so there is no quick subset —
# `run` covers all of scenarios/*.yaml.
scenario-check:
	$(GO) run ./cmd/cogsim validate scenarios/*.yaml
	$(GO) run ./cmd/cogsim run scenarios/*.yaml > /dev/null

# The benchmark driver is a module of its own (bench/go.mod), so the root
# ./... patterns skip it; vet and test it here so an internal API change
# cannot break the benchmark build while the rest of the flow stays green.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Resilience gate: the infra-chaos property suite (internal/chaos) plus the
# trial-pool tests, under the race detector. Both packages run a
# goroutine-leak gate around the whole test binary (chaos.VerifyNoLeaks), so
# an abandoned worker fails the run even when every assertion passed.
chaos:
	$(GO) test -race -timeout 10m ./internal/chaos ./internal/parallel

check: build vet fmt-check test race scenario-check bench-check

# Full benchmark suite (one benchmark per experiment plus the substrate
# micro-benchmarks).
bench:
	$(GO) test -bench=. -benchmem -run NONE .

# Just the engine hot-loop benchmarks (the pattern also matches the sharded
# and sparse variants); BenchmarkEngineSlot and BenchmarkEngineSlotSparse
# must report 0 allocs/op (see also TestRunSlotAllocFree and
# TestRunSlotSparseAllocFree).
bench-engine:
	$(GO) test -bench='BenchmarkEngineSlot' -benchmem -run NONE .

# Regenerate the machine-readable experiment timing baselines. Serial trials
# (-parallel 1) make the allocation counts reproducible: one worker, one
# arena. BENCH_quick_baseline.json is the committed reference CI's smoke-bench
# job compares fresh quick runs against.
baseline:
	$(GO) run ./cmd/cogbench -parallel 1 -bench-out BENCH_baseline.json > /dev/null

baseline-quick:
	$(GO) run ./cmd/cogbench -quick -parallel 1 -bench-out BENCH_quick_baseline.json > /dev/null

# Scale baseline: the E28 and E29 quick sweeps run with the sharded engine,
# recorded as the committed reference for CI's scale smoke. The sharded scan
# is the configuration E28 exists to protect and the event-driven wake-queue
# is E29's, so the baseline pins their allocation and bytes-per-node
# profiles; throughput fields are recorded and CI additionally holds E29's
# slots/sec within a generous factor of this file (a sparse engine that
# silently fell back to dense scanning is a throughput cliff, not an
# allocation change).
baseline-scale:
	$(GO) run ./cmd/cogbench -exp E28,E29 -quick -parallel 1 -shards 4 -bench-out BENCH_scale_baseline.json > /dev/null

# Run every native fuzz target for FUZZTIME each (go test allows one -fuzz
# pattern per package invocation), minimizing each new input for at most
# 1s: Go's default of 60s can spend a short budget minimizing instead of
# fuzzing. Seed corpora live under each package's testdata/fuzz/ and also
# run as plain tests in `make test`.
fuzz:
	$(GO) test -run NONE -fuzz FuzzBuilder -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/assign
	$(GO) test -run NONE -fuzz FuzzEngineSlot -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/sim
	$(GO) test -run NONE -fuzz FuzzRecovery -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/recover
	$(GO) test -run NONE -fuzz FuzzJammer -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/jamming
	$(GO) test -run NONE -fuzz FuzzTraceReader -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/trace
	$(GO) test -run NONE -fuzz FuzzScenario -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/scenario
	$(GO) test -run NONE -fuzz FuzzNetworkSpec -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .
	$(GO) test -run NONE -fuzz FuzzNetworkConstructors -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .
	$(GO) test -run NONE -fuzz FuzzSource -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/rng

# Coverage gate: aggregate statement coverage across all packages must stay
# above the threshold (see TESTING.md). Writes cover.out for inspection
# with `go tool cover -html=cover.out`.
COVER_THRESHOLD ?= 80
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./... > /dev/null
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (threshold $(COVER_THRESHOLD)%)"; \
	awk "BEGIN {exit !($$total >= $(COVER_THRESHOLD))}" || \
		{ echo "coverage $$total% below threshold $(COVER_THRESHOLD)%"; exit 1; }

# Byte-identity against another revision: builds cogbench and cogsim from
# BASE and from the working tree and cmp's their tables and traces (see
# scripts/identity.sh and TESTING.md). Not part of `check`: some changes
# alter output bytes on purpose.
identity:
	@test -n "$(BASE)" || { echo "usage: make identity BASE=<rev>"; exit 2; }
	scripts/identity.sh $(BASE)

clean:
	$(GO) clean ./...
	rm -f cover.out

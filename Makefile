# Developer entry points; CI (.github/workflows/ci.yml) runs the same targets.

GO ?= go

# One ~10s native-fuzz burst per target; see fuzz-smoke.
FUZZTIME ?= 10s

.PHONY: all build test vet lint lint-fast lint-deep race bench bench-json bench-json-smoke bench-gate perfbench-check tier1 fuzz-smoke chaos-smoke replica-chaos-smoke e2e-smoke ci

# Committed perf baseline the bench gate compares against (see bench-gate).
BENCH_BASELINE ?= BENCH_2026-08-07.json

all: ci

build:
	$(GO) build ./...

# -vet=all: run every go vet analyzer over test compilation too, not just the
# high-confidence default subset.
test:
	$(GO) test -vet=all ./...

# vet also fails when gofmt would rewrite any file, so CI's Vet step keeps the
# tree formatted.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt -w:"; echo "$$unformatted"; exit 1; fi

# rkvet: the repo-specific static-analysis suite (internal/analysis), ten
# checkers in two tiers. lint-fast runs the file-local six (maporder,
# poolpair, floateq, dropperr, lockcheck, obsreg); lint-deep runs the
# call-graph four (ctxflow, atomicfield, gocapture, hotalloc). lint runs
# everything in one pass, sharing a single type-check load and call graph.
# All exit nonzero on any finding not suppressed with a reasoned
# //rkvet:ignore.
lint:
	$(GO) run ./cmd/rkvet

lint-fast:
	$(GO) run ./cmd/rkvet -fast

lint-deep:
	$(GO) run ./cmd/rkvet -deep -v

# Race-enabled pass over the streaming hot path and its consumers.
race:
	$(GO) test -race ./...

# The incremental-window benchmarks: advance cost must stay flat across
# capacities, Disagreeing must be word-parallel, SRK must not allocate —
# plus the srk_par solve grid at p=1 (internal/benchsuite).
bench:
	$(GO) test -run=NONE -bench 'WindowAdvance|WindowExplain|Disagreeing|RemoveAdd|BenchmarkSRK$$' -benchmem \
		./internal/cce/ ./internal/core/
	$(GO) test -run=NONE -bench 'SRKParallel' -benchmem ./internal/benchsuite/

# Machine-readable perf baseline: every internal/benchsuite hot-path case
# (SRK solve eager and lazy, OSRK observe, window advance, WAL append, obs
# instruments, the srk_par grid) run under testing.Benchmark, written to
# BENCH_<date>.json. Diff two baselines with `benchall -compare OLD NEW`.
bench-json:
	$(GO) run ./cmd/benchall -json BENCH_$$(date +%Y-%m-%d).json

# One-iteration pass over the whole bench-json pipeline: proves every case
# still builds its dataset and solves, without spending benchmark time. The
# output lands in /tmp and is never a baseline (the document is marked smoke).
bench-json-smoke:
	$(GO) run ./cmd/benchall -json $${TMPDIR:-/tmp}/bench-smoke.json -smoke

# CI perf gate: record a fresh full-benchtime baseline and fail on a >25%
# ns/op regression in any srk_lazy case or any allocs/op increase vs the
# committed baseline. Cross-host runs (different CPU count / GOMAXPROCS)
# skip the timing gate with a warning — only the host-independent allocation
# gate applies there.
bench-gate:
	$(GO) run ./cmd/benchall -gate $(BENCH_BASELINE) -json $${TMPDIR:-/tmp}/bench-gate.json

# The repository benchmark (_perfbench/) is a module of its own, so the root
# build never compiles it, yet it links the bitset, core and service packages
# from this checkout. Vet and test it so an internal API change that breaks it
# fails here rather than in a benchmark run.
perfbench-check:
	cd _perfbench && GOTOOLCHAIN=local $(GO) vet . && GOTOOLCHAIN=local $(GO) test .

# End-to-end gate: build cceserver and ccebench once, then run two scenarios.
# Observability: boot a primary with tracing and a separate ops listener,
# drive observe/explain traffic through the retrying client, scrape /metrics,
# /healthz and /debug/traces and assert the core series moved, then boot a
# follower and check the replication series and the staleness contract.
# Load: run a duplicate-heavy ccebench pass with one async batch and assert
# cache hits, a completed job, and /stats equal to /metrics. The ccebench JSON
# artifact lands at LOADGEN_ARTIFACT ($TMPDIR by default; CI points it into
# the checkout and uploads it).
LOADGEN_ARTIFACT ?= $${TMPDIR:-/tmp}/ccebench-smoke.json

e2e-smoke:
	$(GO) run ./cmd/e2esmoke -artifact $(LOADGEN_ARTIFACT)

# Short native-fuzz burst per target, on top of the committed seed corpora
# (testdata/fuzz/): bitset vs naive model, bucketing round-trips, incremental
# context vs rebuilt, retained context vs a last-N model, the served SRK
# engine vs the eager loop, the drift panel's batch replay vs per-row
# observes, SAT solver vs its own CNF, replication WAL-record decode round
# trip, the shared log replay scanner over WAL and job-log bytes, the
# snapshot decoder a follower runs on /snapshot bodies, and the HTTP request
# bodies of /observe, /explain and /jobs.
# go test -fuzz accepts one target per invocation, hence the fan-out.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzSetOps          -fuzztime=$(FUZZTIME) ./internal/bitset/
	$(GO) test -run=NONE -fuzz=FuzzBucketer        -fuzztime=$(FUZZTIME) ./internal/feature/
	$(GO) test -run=NONE -fuzz=FuzzContextRemoveAdd -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzRetained        -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzLazyGreedy      -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzObserveAll      -fuzztime=$(FUZZTIME) ./internal/cce/
	$(GO) test -run=NONE -fuzz=FuzzSolver          -fuzztime=$(FUZZTIME) ./internal/sat/
	$(GO) test -run=NONE -fuzz=FuzzDecodeWALRecord -fuzztime=$(FUZZTIME) ./internal/persist/
	$(GO) test -run=NONE -fuzz=FuzzReplayLog       -fuzztime=$(FUZZTIME) ./internal/persist/
	$(GO) test -run=NONE -fuzz=FuzzDecodeSnapshot  -fuzztime=$(FUZZTIME) ./internal/persist/
	$(GO) test -run=NONE -fuzz=FuzzRequestBodies   -fuzztime=$(FUZZTIME) ./internal/service/

# The fault-injection suite under the race detector: deadline degradation,
# crash recovery from torn logs, load shedding, panic survival, the
# concurrent refusal invariant, the concurrent-solve stress/chaos tests
# (solves racing window advances, injector-timed mid-round cancellation),
# and the request-plane suites — the cache under injected solver
# panics/errors and a herd of identical misses, cache differential + the
# exact-only rule (degraded keys are never stored), and job resume from torn
# checkpoint logs — all with injected solver/monitor/log faults
# (internal/faultinject). -short keeps the request volume CI-sized.
chaos-smoke:
	$(GO) test -race -short -run 'Chaos|Robust|Recovery|Degrade|Shed|Panic|Torn|Deadline|Closed|ParallelStress|Job|Cache' \
		./internal/service/ ./internal/faultinject/ ./internal/persist/ ./internal/cce/

# The replication failover suite under the race detector (DESIGN.md §14):
# a follower tailing a compacting primary through seeded stream cuts, flaky
# dials and injected latency, a primary restart with an epoch bump, and a
# follower crash/restart — asserting convergence to byte-identical
# explanations and that bounded reads never overstate their freshness.
# -short keeps the observation volume CI-sized.
replica-chaos-smoke:
	$(GO) test -race -short -run 'Chaos|Follower|Hub|Replica|Epoch' \
		./internal/replica/ ./internal/service/

# Tier-1 gate from ROADMAP.md.
tier1: build test

ci: vet lint tier1 race

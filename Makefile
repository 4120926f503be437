# Tier-1 verification (what every PR must keep green) plus the race
# gate for the serving layer. CI runs `make ci`.

GO ?= go

# Build identity stamped into the binaries (cadd -version, the
# cadd_build_info metric and /statusz). Falls back to "dev" outside a
# git checkout.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -X dyngraph/internal/buildinfo.Version=$(VERSION)

.PHONY: tier1 fmt vet build test race ci bench benchsmoke trace-smoke fuzz-smoke crash-smoke hibernate-smoke incremental-smoke cluster-smoke obs-smoke grow-smoke install

tier1: fmt vet build test

# gofmt -l prints every file whose formatting differs; any output fails.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

# Install the version-stamped binaries into GOBIN.
install:
	$(GO) install -ldflags '$(LDFLAGS)' ./cmd/...

test:
	$(GO) test ./...

# The race detector gates the serving layer (and everything else):
# internal/service's stress test fires overlapping snapshot POSTs at
# multiple streams and must reproduce sequential detector results.
race:
	$(GO) test -race ./...

ci: tier1 race

# smoke-tests PATTERN,PACKAGES runs the -run filtered tests under the
# race detector, after failing if PATTERN selects no test in one of
# PACKAGES: go test passes silently when a pattern matches nothing, so a
# renamed test would otherwise leave a smoke target green while it runs
# nothing.
define smoke-tests
	@for p in $(2); do \
		out=$$($(GO) test -list '$(1)' $$p) || exit 1; \
		echo "$$out" | grep -q '^Test' || { echo "pattern '$(1)' selects no test in $$p" >&2; exit 1; }; \
	done
	$(GO) test -race -run '$(1)' -count=1 $(2)
endef

# Full Go benchmark pass. The solver counters (PCG and block
# iterations, base solves, allocations per push) are gated by
# TestPushCounters against BENCH_counters.json; after an intentional
# change regenerate that file with
#   go test ./internal/core -run '^TestPushCounters$' -update
# Wall-clock end to end is pushbench's (BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration compile-and-run of every benchmark: catches bit-rotted
# benchmark code without paying for real measurements. CI runs this.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Incremental-updates smoke: the incremental path's differential test
# suite — the oracle-agreement, fallback and verify-skip pins in
# commute/core and the end-to-end streaming variant in service — plus
# the solver-counter gate (TestPushCounters: warm vs Woodbury pushes,
# every single-edge push on the Woodbury path), in a call of its own so
# the -list guard fails if it is renamed. CI runs this.
incremental-smoke:
	$(call smoke-tests,TestIncremental|TestOnlineIncremental|TestWoodbury|TestIncidence,./internal/solver ./internal/commute ./internal/core ./internal/service)
	$(call smoke-tests,^TestPushCounters$$,./internal/core)

# End-to-end check of the tracing pipeline: run cadrun over the toy
# dataset with -trace-out and validate the Chrome trace_event document
# it writes. CI runs this.
trace-smoke:
	$(GO) run ./cmd/datagen -dataset toy -out /tmp/cad-trace-smoke.txt
	$(GO) run ./cmd/cadrun -in /tmp/cad-trace-smoke.txt -trace-out /tmp/cad-trace-smoke.json > /dev/null
	$(GO) run ./cmd/tracecheck /tmp/cad-trace-smoke.json

# Short coverage-guided runs of every fuzzer: the edge-list parser
# (NaN/Inf/negative-weight acceptance, allocation bombs), the δ
# selection (bit-exact against the merged-sort reference, edgesAt
# against AnomalousEdges), the snapshot restore boundary (decode,
# restore and one push never panic) and the push body (decode and graph
# build never panic, vertex counts past the cap are refused), beyond
# their seed corpora. CI runs this.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzReadSequence$$' -fuzztime=10s ./internal/graph
	$(GO) test -run=NONE -fuzz='^FuzzSelectDelta$$' -fuzztime=10s ./internal/core
	$(GO) test -run=NONE -fuzz='^FuzzRestoreSnapshot$$' -fuzztime=10s ./internal/service
	$(GO) test -run=NONE -fuzz='^FuzzSnapshotBody$$' -fuzztime=10s ./internal/service

# Memory-governance smoke: the hibernation test suite — create → push
# → hibernate → rehydrate on the real serving stack with byte-identical
# /report equivalence, the governor's watermark and idle policies, and
# the crash-mid-hibernation cycle. CI runs this.
hibernate-smoke:
	$(call smoke-tests,TestHibernat|TestGovernor|TestCrashDuringHibernationChurn,./internal/service ./cmd/cadd)

# Cluster smoke: real cadd subprocesses — three ring nodes plus the
# router replaying an Enron prefix byte-identically to a single node,
# and a WAL-shipped standby promoted after a kill -9 — plus the
# in-process cluster suite (ring pins, scatter merges, replication
# byte-identity). CI runs this.
cluster-smoke:
	$(call smoke-tests,TestCluster,./cmd/cadd)
	$(GO) test -race -count=1 ./internal/cluster

# Observability smoke: real cadd subprocesses — three ring nodes with a
# push-latency SLO plus the router, built with a stamped version —
# routed pushes must produce one stitched cross-node trace (validated
# by internal/tracecheck with a pid per node), a parseable /statusz on
# every node and the router, and a merged /metrics exposition that
# lints with exemplars, SLO burn-rate gauges and runtime series. The
# cadtop render tests ride along so the operations view stays honest
# against the same document shapes. CI runs this.
obs-smoke:
	$(call smoke-tests,TestObsSmoke,./cmd/cadd)
	$(GO) test -race -count=1 ./cmd/cadtop

# The durability acceptance test: build the real cadd binary, kill -9
# it mid-push, restart on the same -data-dir and require the recovered
# /report to be byte-identical to an uninterrupted run. Runs under
# -race so the recovery path is also raced. CI runs this.
crash-smoke:
	$(call smoke-tests,TestCrashRecovery|TestDurability,./cmd/cadd ./internal/service)

# Dynamic-vertex-set smoke: the datagen grow dataset (a growing
# sequence, exercising the text format's `v t count` directives)
# replayed through real routed cadd subprocesses byte-identically to
# the batch cadrun encoding, a kill -9 mid-growth of an external-ID
# stream, and the growth test suite (common-vertex-set scoring,
# cursor rollback on failed pushes, recovery and hibernation across a
# vertex-set change). CI runs this.
grow-smoke:
	$(GO) run ./cmd/datagen -dataset grow -out /tmp/cad-grow-smoke.txt
	$(GO) run ./cmd/cadrun -in /tmp/cad-grow-smoke.txt > /dev/null
	$(call smoke-tests,TestGrow|TestFailedPushRetry|TestExternalID|TestDurabilityRecoveryGrowth|TestHibernateRehydrateGrowth,./cmd/cadd ./internal/service)

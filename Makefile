# Tier-2 checks for this repo: formatting, vet, the custom
# determinism/numerics + concurrency-contract lint suite, and the full
# test suite under the race detector. Tier-1 stays `go build ./... &&
# go test ./...` (see ROADMAP.md).

GO ?= go
BENCH_DATE ?= $(shell date +%Y%m%d)
# bench-diff compares the two newest archives unless overridden:
#   make bench-diff BENCH_OLD=BENCH_a.json BENCH_NEW=BENCH_b.json
BENCH_OLD ?= $(firstword $(shell ls -1 BENCH_*.json 2>/dev/null | tail -2))
BENCH_NEW ?= $(lastword $(shell ls -1 BENCH_*.json 2>/dev/null | tail -2))
BENCH_THRESHOLD ?= 0.25
FUZZTIME ?= 10s

.PHONY: check build test vet fmt lint lint-report lint-allows race fuzz bench bench-diff bench-test analyze-smoke churn-smoke engine-smoke monitor-smoke causal-smoke shard-smoke wire-smoke

check: fmt vet lint analyze-smoke churn-smoke engine-smoke monitor-smoke causal-smoke shard-smoke wire-smoke bench-test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails when any file needs reformatting, printing the offenders.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Custom static analysis (internal/lint): the determinism/numerics
# rules (norand, nowallclock, floatcmp, mapiter, globalstate, layering)
# plus the concurrency contract (lockguard, gorolifecycle, errconserve,
# chanmisuse). Type-checks against the go command's export data (go
# list -export), so the go build cache is the only cache; exits nonzero
# with file:line:col diagnostics on any unannotated finding. See
# DESIGN.md for the rules and the //lint:allow escape hatch; `make
# lint-allows` audits the escape hatches for staleness.
lint:
	$(GO) run ./cmd/distclass-lint ./...

# JSON finding report (CI artifact): same analysis, machine-readable.
lint-report:
	$(GO) run ./cmd/distclass-lint -format json ./... > lint-report.json; \
	status=$$?; echo "wrote lint-report.json"; exit $$status

# Audit //lint:allow directives: each prints as used or STALE.
lint-allows:
	$(GO) run ./cmd/distclass-lint -list-allows ./...

race:
	$(GO) test -race ./...

# Coverage-guided fuzzing of the two decoders that read untrusted
# bytes — trace files (replay.Analyze) and wire payloads
# (wire.UnmarshalClassification) — and of the pruned EM reduction
# against its reference (em.ReduceMixture), FUZZTIME each. Kept out of `make
# check` so that gate stays deterministic; CI runs it as its own step.
# A failing input lands under the package's testdata/fuzz and then
# runs as a plain regression test. Minimization is capped because the
# trace fuzzer seeds with the whole replay fixture, which would
# otherwise take the entire budget to minimize.
fuzz:
	$(GO) test ./internal/replay -run '^$$' -fuzz '^FuzzAnalyze$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzUnmarshalClassification$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/em -run '^$$' -fuzz '^FuzzReduceMixture$$' -fuzztime $(FUZZTIME)

# Observability smoke gate: a tiny fixed-seed simulation must replay
# with zero anomalies (no stalled nodes, no decode errors, no round
# regressions, no post-convergence divergence).
analyze-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/distclass-sim -n 16 -rounds 25 -seed 1 -trace "$$dir/smoke.trace" >/dev/null && \
	$(GO) run ./cmd/distclass-analyze -fail-anomalies -format json -o "$$dir/smoke.json" "$$dir/smoke.trace" && \
	echo "analyze-smoke: 0 anomalies"

# The next six gates are rows of the experiments smoke table
# (cmd/experiments/smoke.go), which TestSmoke also runs. Every row runs
# the two-cluster workload to convergence and audits its final
# weight bit for bit; the wire codec carries weights exactly, so that
# holds on the wire backends too.
#
# Backend-parity smoke gate: the same tiny two-cluster workload must
# converge with exact weight conservation on every engine backend —
# deterministic simulators and concurrent transports alike.
engine-smoke:
	@$(GO) run ./cmd/experiments -smoke engine >/dev/null && \
	echo "engine-smoke: all backends converged, weight conserved"

# Monitoring-plane smoke gate: the engine-smoke workload with the online
# monitor attached on every backend, asserted over real HTTP — /health
# must answer 200 converged and /status an exact conservation audit.
# `make race` re-runs the same gate under the race detector via
# TestSmoke/monitor.
monitor-smoke:
	@$(GO) run ./cmd/experiments -smoke monitor >/dev/null && \
	echo "monitor-smoke: /health converged and /status audit exact on all backends"

# Causal-tracing smoke gate: the engine-smoke workload with causal
# tracing on every backend. The harness asserts a clean happens-before
# reconstruction and an exact provenance ledger internally, then the
# distclass-analyze CLI re-audits the written trace files. Both run
# the same replay.Analyze, whose report carries the causal section
# because the traces declare schema 2; the CLI step checks that the
# file on disk replays clean at the CLI's default threshold, with zero
# replay and zero causal anomalies.
causal-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/experiments -smoke causal -smoke-out "$$dir" >/dev/null && \
	for b in round async pipe tcp shard; do \
		$(GO) run ./cmd/distclass-analyze -fail-anomalies -format json -o "$$dir/causal.$$b.json" "$$dir/causal.$$b.trace" || exit 1; \
	done && \
	echo "causal-smoke: happens-before clean and ledger exact on all backends"

# Wire-transport smoke gate: the two-cluster workload on both wire
# backends (pipe, tcp) with frame batching. The harness audits
# convergence, exact weight conservation and a clean causal/provenance
# reconstruction over the batched frames, asserts the deployment claim
# (v2f32+batching spends at least 40% fewer wire bytes per message on
# tcp than the closed-form all-float64 message), and the
# distclass-analyze CLI re-audits the batched causal traces — batching
# must be invisible to the ledger.
wire-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/experiments -smoke wire -smoke-out "$$dir" >/dev/null && \
	for b in pipe tcp; do \
		$(GO) run ./cmd/distclass-analyze -fail-anomalies -format json -o "$$dir/wire.$$b.json" "$$dir/wire.$$b.trace" || exit 1; \
	done && \
	echo "wire-smoke: v2+batching conserves weight exactly, ledger exact, >=40% fewer bytes/message"

# Sharded-scheduler smoke gate: a 512-node cluster on the shard
# backend must converge, survive a kill/restart churn cycle, reconverge
# with every restarted node within the tolerance of a node it never
# killed, and end with an exact weight ledger (final = initial -
# destroyed + restarted).
# This is the scale-path gate: per-shard run queues, batched cross-shard
# delivery, quiescent-boundary failure injection.
shard-smoke:
	@$(GO) run ./cmd/experiments -smoke shard >/dev/null && \
	echo "shard-smoke: 512-node sharded cluster reconverged through churn, restarted nodes mixed, ledger exact"

# Fault-tolerance smoke gate: once a pipe cluster has converged, a
# fifth of its nodes are killed (Figure 4's fail-stop crash); the
# survivors must reconverge and hold exactly the weight the kills left
# (initial - destroyed, bit for bit), and the distclass-analyze CLI
# re-audits the run's trace, which must replay with zero anomalies.
churn-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/experiments -smoke churn -smoke-out "$$dir" >/dev/null && \
	$(GO) run ./cmd/distclass-analyze -fail-anomalies -format json -o "$$dir/churn.json" "$$dir/churn.pipe.trace" && \
	echo "churn-smoke: survivors reconverged, weight exact after kills, 0 anomalies"

# Benchmarks over the hot paths (vector/matrix kernels, EM, partition,
# wire codec, sim round loop), archived as BENCH_<date>.json with a
# stable schema: op, iterations, ns_per_op, bytes_per_op,
# allocs_per_op, extra.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/... | $(GO) run ./cmd/benchjson > BENCH_$(BENCH_DATE).json
	@echo "wrote BENCH_$(BENCH_DATE).json"

# The repository benchmark (cmd/distclass-bench) is a Go module of its
# own, so `go build ./...` and `go test ./...` never compile it. Its
# tests run every workload scaled down, checking that the benchmark
# still builds and passes its correctness checks against the packages
# it imports.
bench-test:
	cd cmd/distclass-bench && $(GO) test .

# Compare two archived benchmark runs; exits nonzero when any op's
# ns/op regressed beyond BENCH_THRESHOLD (a fraction). By default it
# diffs the two newest BENCH_*.json in the repo root.
bench-diff:
	@if [ -z "$(BENCH_OLD)" ] || [ "$(BENCH_OLD)" = "$(BENCH_NEW)" ]; then \
		echo "bench-diff: need two archives (have: $(BENCH_NEW))"; exit 2; \
	fi
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCH_THRESHOLD) $(BENCH_OLD) $(BENCH_NEW)

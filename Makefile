# Tier-1 gate (see ROADMAP.md): everything `make check` runs must pass
# before a change lands.

GO ?= go

.PHONY: check fmt vet staticcheck build inline-check test test-race bench-once test-short fuzz-equiv fuzz-entry audit audit-quick audit-adversarial lint-workloads lint-tasks lint-wcec bench bench-guard bench-smoke bench-ledger bench-ab serve-smoke clean

# `test` runs the full suite race-free — including the complete engine
# equivalence matrix, which self-trims to a representative slice under
# the race detector (its ~10× slowdown would blow the package timeout).
# `test-race` then re-runs everything with -race on that slice.
# `bench-once` runs every Go benchmark one iteration, so a benchmark
# that no longer builds or fails is caught like a test.
# `bench-smoke` last: its golden digests pin the seed-1 sim Results and
# the quick-figure CSVs, which an edit to a path both engines share
# (stepOnce, consume, idleToDeath) must reproduce — the equivalence
# oracle cannot see such an edit.
check: fmt vet staticcheck build inline-check test test-race bench-once bench-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck runs when installed (CI installs it); local environments
# without it skip with a note rather than fail, so `make check` needs no
# network access.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

build:
	$(GO) build ./...

# both halves of the capacitor's settle step (energy.Settle.Credit and
# Draw) must stay inlined into the fused loops: no result bit shows a
# half pushed over the inliner's budget, only the benchmark
inline-check:
	GO="$(GO)" sh scripts/inline_check.sh

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# every Benchmark* function once (about 6 s on 2 vCPUs, most of it
# compiling); the timings mean nothing at one iteration
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# quick loop while developing: skips the fuzz matrix and the full
# 100-schedule audit sweep
test-short:
	$(GO) test -short ./...

# a time-boxed search for engine divergence beyond the seeds (every
# wide-window equivalence row, which plain `go test` runs); a failing
# input lands in internal/device/testdata/fuzz/FuzzEngineEquivalence
fuzz-equiv:
	$(GO) test ./internal/device/ -run '^$$' -fuzz '^FuzzEngineEquivalence$$' -fuzztime 60s

# a time-boxed search for result-store entries the decoder mishandles:
# it is the only guard on a memory-tier payload, which keeps no
# checksum; a failing input lands in
# internal/sweep/testdata/fuzz/FuzzDecodeEntry
fuzz-entry:
	$(GO) test ./internal/sweep/ -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime 60s

# the crash-consistency audit sweep on its own
audit:
	$(GO) test -run 'TestAudit' -v ./internal/faults/

# a 10-schedule audit sweep through the parallel sweep engine — the
# CLI path (panic isolation, -workers, partial results), not the test
# harness
audit-quick:
	$(GO) run ./cmd/ehsim -audit -audit-schedules 10

# a bounded adversarial fault-search campaign with the formal oracle:
# fixed seed, short budget, default strategy × workload matrix (which
# includes the checkpoint-free alpaca task runtime). Exit 3 and a
# counterexamples.txt of minimized, `-repro`-replayable cases when any
# verdict fires (CI uploads the file as an artifact). The default
# protocol is expected to come up clean; this is the regression tripwire
# for protocol changes. A second campaign then aims at the known-bad
# alpaca-naive variant (non-atomic in-place task commits) and MUST find
# a counterexample — its exit 3 is inverted — so the auditor's teeth are
# checked in the same job. The task and WCEC tables are not rendered
# here: results/ehlint_{tasks,wcec}.golden are those bytes, and `make
# check`'s golden tests compare against them.
audit-adversarial:
	$(GO) run ./cmd/ehsim -audit -adversarial -oracle \
		-campaign-budget 24 -fault-seed 1 \
		-counterexamples counterexamples.txt \
		-metrics audit_adversarial_metrics.txt
	$(GO) build -o ehsim.audit ./cmd/ehsim
	./ehsim.audit -audit -adversarial -oracle \
		-audit-strategies alpaca-naive -audit-workloads counter \
		-campaign-budget 24 -fault-seed 1 \
		-counterexamples counterexamples_naive.txt; \
	status=$$?; rm -f ehsim.audit; \
	if [ $$status -ne 3 ]; then \
		echo "audit-adversarial: alpaca-naive campaign exited $$status, want 3 (known-bad target must be caught)"; \
		exit 1; \
	fi

# regenerate the golden static-analysis findings for every built-in
# workload (both data placements). cmd/ehlint's golden test fails on any
# drift from results/ehlint_workloads.golden, so new hazards must be
# reviewed and committed here deliberately.
lint-workloads:
	$(GO) run ./cmd/ehlint -golden > results/ehlint_workloads.golden
	@git diff --stat -- results/ehlint_workloads.golden

# regenerate the golden task decomposition tables (the static task
# boundaries, footprints and buffer bounds the Alpaca runtime executes).
# cmd/ehlint's golden test fails on any drift from
# results/ehlint_tasks.golden, so decomposition changes must be reviewed
# and committed here deliberately.
lint-tasks:
	$(GO) run ./cmd/ehlint -tasks -golden > results/ehlint_tasks.golden
	@git diff --stat -- results/ehlint_tasks.golden

# regenerate the golden WCEC forward-progress certificate tables (the
# per-region worst/best-case cycle and energy bounds, livelock verdicts
# and repair suggestions of the static verifier, under both region
# semantics). cmd/ehlint's golden test fails on any drift from
# results/ehlint_wcec.golden, so bound or verdict changes must be
# reviewed and committed here deliberately.
lint-wcec:
	$(GO) run ./cmd/ehlint -wcec -golden > results/ehlint_wcec.golden
	@git diff --stat -- results/ehlint_wcec.golden

# regenerate BENCH_core.json: the execution-engine macro-benchmark
# (reference vs batched on the counter/bench-supply configuration).
# CI uploads the file as an artifact; the committed copy is the
# baseline reviewers diff against.
bench:
	EHSIM_BENCH_OUT=$(CURDIR)/BENCH_core.json \
		$(GO) test ./internal/device/ -run TestWriteBenchJSON -count=1 -v

# compile and smoke the benchmark harness (about 6 s; part of `check`).
# bench/ is its own Go module, so the root `go build ./...` never
# compiles it, yet it reaches into the cpu and device APIs; its short
# suite includes the golden-digest smoke of every workload (figure CSVs
# and seed-1 sim Results under bench/golden/).
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# the per-layer performance ledger: one traced ehbench pass (the same
# for every workload) recording each layer's rows — the critical cell
# (runner.critical_cell_ms), per-pass allocations and GCs, per-figure
# cold and warm times, span self-times — into .bench_build/ledger along
# with its span trees. CI uploads the directory on every push; the
# numbers are informational, not a gate.
bench-ledger:
	bash bench/run.sh --workload all --seed 1 --trace 1 --out .bench_build/ledger

# alternating parent/change pairs of the benchmark: the commit REF
# (default HEAD) against the working tree, one pair per seed in SEEDS on
# WORKLOAD, then `ehbench compare`'s verdict per workload and metric
# (scripts/bench_ab.sh; on 2 vCPUs a pair takes about 3 min for all
# workloads, 25 s for sim-harvest). Writes only under .bench_build/ab/.
# Example:
#   make bench-ab REF=HEAD~1 WORKLOAD=sim-harvest SEEDS="21 22 23 24 25 26 27 28 29 30"
WORKLOAD ?= all
SEEDS ?= 1 2 3 4 5 6 7 8 9 10
bench-ab:
	REF="$(REF)" bash scripts/bench_ab.sh $(WORKLOAD) $(SEEDS)

# end-to-end smoke of cmd/ehserve: build it, start it against a
# throwaway disk store, ask the same figure twice (the second reply must
# be an X-EH-Cache hit with byte-identical body), one sweep and one
# model query, then shut down gracefully. The store's counters land in
# serve_smoke_stats.json, which CI uploads as an artifact. Requires
# curl.
serve-smoke:
	sh scripts/serve_smoke.sh

# the observability zero-cost guard with the wall-clock half enabled:
# the disabled tracer path must add zero allocations (checked in every
# ordinary test run) AND stay within 2% ns/op of the committed
# BENCH_core.json baseline (opt-in, since the baseline is
# machine-specific).
bench-guard:
	EHSIM_BENCH_GUARD=1 \
		$(GO) test ./internal/device/ -run TestObservabilityDisabledCost -count=1 -v

clean:
	$(GO) clean ./...

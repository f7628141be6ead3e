# fdgrid — build, verify and smoke-test the reproduction.
#
#   make ci          vet + build + race tests + sweep smoke + examples (the full gate)
#   make lint        detlint: machine-check the determinism contracts
#   make test        plain unit tests
#   make smoke       short parallel sweep through cmd/experiments
#   make examples    go run every runnable example (drift gate)
#   make bench       benchmarks (5 counts) + sweep wall time → $(BENCH_OUT)
#   make bench-gate  scheduler micro-benchmarks vs the committed baseline
#
# The suite fans out one way: `experiments -shard i/m -report …` per
# shard, then `experiments -merge -golden …` over the shard files (CI's
# sweep jobs; TestSuiteGolden runs the same path in-process).
#
# BENCH_OUT names the committed benchmark record; override it when
# cutting a new baseline (e.g. `make bench BENCH_OUT=BENCH_PR4.json`).

GO ?= go
BENCH_OUT ?= BENCH_PR7.json

.PHONY: ci vet lint build test race smoke examples bench bench-smoke bench-gate clean

ci: vet build race smoke examples

# detlint machine-checks the determinism and run-token ownership
# contracts (docs/ARCHITECTURE.md, "Enforced invariants"): wall-clock
# reads, global math/rand draws, map-order leaks into ordered output,
# locks/goroutines in run-token-owned packages, non-canonical trace
# rendering. Escapes are //detlint:allow comments with audited reasons.
lint:
	$(GO) run ./cmd/detlint ./...

# vet also enforces gofmt (a formatting diff fails the target with the
# offending files listed) and runs detlint, so the local static gate
# matches the CI vet job.
vet: lint
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle randomizes test order so inter-test state dependence breaks
# loudly here instead of lurking until a refactor reorders a file.
race:
	$(GO) test -race -shuffle=on ./...

# A short end-to-end sweep: every experiment matrix runs (the full
# matrix takes a couple of seconds), the rendered report and canonical
# JSON land in /tmp. Fails if any experiment reports FAILED, if the JSON
# differs from the committed suite golden, or if the markdown differs
# from the committed EXPERIMENTS.md, so byte drift breaks the smoke too.
# Fewer seeds are not used: EXP-T5's distinct-value witness needs
# several, and the golden is cut at the default seed count.
smoke: build
	$(GO) run ./cmd/experiments -out /tmp/fdgrid-smoke.md -report /tmp/fdgrid-smoke.json \
		-golden cmd/experiments/testdata/suite.golden.json
	@if grep -q "FAILED" /tmp/fdgrid-smoke.md; then \
		echo "smoke sweep has FAILED verdicts:"; grep -B1 "FAILED" /tmp/fdgrid-smoke.md; exit 1; \
	fi
	@cmp /tmp/fdgrid-smoke.md EXPERIMENTS.md || { \
		echo "smoke markdown differs from EXPERIMENTS.md"; exit 1; }
	@echo "smoke sweep clean: /tmp/fdgrid-smoke.md"

# Examples smoke: run every example binary end to end so example drift
# (an API change the examples were not updated for, a run that starts
# failing) breaks the gate instead of rotting silently. Examples print
# to stdout; only their exit codes gate.
examples: build
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done
	@echo "examples clean"

# Full benchmark pass: every benchmark 5 times (benchstat wants repeated
# samples; a duration-based benchtime lets the nanosecond scheduler
# micro-benchmarks amortize their setup while keeping the sweep-heavy
# ones tractable), plus three timed runs of the full experiment matrix.
# The parsed record lands in $(BENCH_OUT); a "baseline" section already
# present there (the committed PR-1 reference) is preserved.
bench: build
	$(GO) test -bench . -benchmem -count 5 -benchtime 300ms -run XXX . | tee /tmp/fdgrid-bench.txt
	rm -f /tmp/fdgrid-sweeptime.txt
	for i in 1 2 3; do $(GO) run ./cmd/experiments -out /tmp/fdgrid-bench-sweep.md >> /tmp/fdgrid-sweeptime.txt || exit 1; done
	cat /tmp/fdgrid-sweeptime.txt
	$(GO) run ./cmd/bench2json -bench /tmp/fdgrid-bench.txt -sweep /tmp/fdgrid-sweeptime.txt -out $(BENCH_OUT)

# The bench smoke CI runs: the scheduler and batched-delivery
# micro-benchmarks only, enough to catch a perf-path regression that
# breaks outright.
bench-smoke: build
	$(GO) test -bench 'BenchmarkScheduler|BenchmarkDeliverBatch|BenchmarkBroadcastFanout' -benchtime 1000x -run XXX .

# The CI benchmark-regression gate: sample the scheduler and
# batched-delivery micro-benchmarks a few times and compare medians
# against the committed record; a >25% median regression fails (see
# cmd/benchgate for why the threshold is generous).
bench-gate: build
	$(GO) test -bench 'BenchmarkScheduler|BenchmarkDeliverBatch|BenchmarkBroadcastFanout' -benchtime 200ms -count 5 -run XXX . | tee /tmp/fdgrid-bench-gate.txt
	$(GO) run ./cmd/benchgate -baseline $(BENCH_OUT) -bench /tmp/fdgrid-bench-gate.txt -match 'BenchmarkScheduler|BenchmarkDeliverBatch|BenchmarkBroadcastFanout' -threshold 0.25

clean:
	rm -f /tmp/fdgrid-smoke.md /tmp/fdgrid-smoke.json

# fdgrid — build, verify and smoke-test the reproduction.
#
#   make ci          vet + build + race tests + sweep smoke + examples (the full gate)
#   make lint        detlint: machine-check the determinism contracts
#   make test        plain unit tests
#   make smoke       short parallel sweep through cmd/experiments
#   make examples    go run every runnable example (drift gate)
#   make bench-gate  suite benchmark A/B: the merge-base with origin/main
#                    against this checkout (about 6 min plus two builds)
#
# The suite fans out one way: `experiments -shard i/m -report …` per
# shard, then `experiments -merge -golden …` over the shard files (CI's
# sweep jobs; TestSuiteGolden runs the same path in-process).
#
# The suite is benchmarked one way: suitebench (BENCHMARK.json) on each
# side of a paired A/B. The bench_test.go micro-benchmarks are ungated
# layer probes (`go test -bench . -run XXX .`).

GO ?= go

.PHONY: ci vet lint build test race smoke examples bench-gate clean

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

# The suite regression gate: run every BENCHMARK.json workload on the
# merge-base and on this checkout in 5 alternating pairs and fail when a
# run fails its correctness check or an end-to-end metric's median is
# worse than the base's by more than its bound (see cmd/benchgate).
bench-gate:
	$(GO) run ./cmd/benchgate -base $$(git merge-base HEAD origin/main)

clean:
	rm -f /tmp/fdgrid-smoke.md /tmp/fdgrid-smoke.json

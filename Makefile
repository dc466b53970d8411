GO ?= go

.PHONY: build test race vet fmt lint verify bench-test bench-seeds

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gate: fails when any Go file needs gofmt. The lint fixtures under
# internal/lint/testdata keep deliberate shapes and are exempt, as are the
# benchmark's build outputs.
GOFMT ?= $(shell $(GO) env GOROOT)/bin/gofmt
fmt:
	@out=$$($(GOFMT) -l . | grep -v -e '^internal/lint/testdata/' -e '^bench/out/'); \
	if [ -n "$$out" ]; then echo "fmt: gofmt -l lists:"; echo "$$out"; exit 1; fi

# graphlint: the repo-specific contracts (determinism, metered clock, seeded
# RNG, runtime-owned concurrency, error-return policy) plus the
# interprocedural proofs — hot-path allocation freedom and lock ordering.
# See DESIGN.md §3.9 and §3.14. -timing prints the per-check wall-time
# report; -budget fails the run (exit 2) if the whole analysis exceeds 5s,
# keeping the call-graph passes honest as the module grows.
lint:
	$(GO) run ./cmd/graphlint -timing -budget 5s ./...

# -shuffle=on runs tests in a random order and prints the seed (rerun one
# order with -shuffle=<seed>): no test may depend on another having run first.
test:
	$(GO) test -shuffle=on ./...

# Race-enabled subset: the packages with real concurrency (the cluster
# runtime and the engines that drive it, including the fault-injection /
# crash-recovery paths, the parallel tensor/aggregation kernels, and the
# serving tier's worker pools and batchers).
race:
	$(GO) test -race ./internal/cluster/ ./internal/pregel/ ./internal/gnndist/ ./internal/tensor/ ./internal/gnn/ ./internal/serve/ ./internal/gthinkerq/ ./internal/quegel/

# The benchmark (bench/, its own module; `bash bench/run.sh` runs it) vetted
# and smoke-tested at probe sizes, so a change that breaks it fails verify.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The benchmark's own correctness checks (bash bench/run.sh exits non-zero
# when any operation fails them) at six seeds, one-second windows each. Every
# seed runs; the target fails if any did. It takes minutes, so it is neither
# in verify nor in tier-1; CI runs it as a job of its own.
bench-seeds:
	@failed=""; \
	for s in 1 2 3 42 123 456; do \
		echo "bench-seeds: seed $$s"; \
		bash bench/run.sh -seed $$s -seconds 1 || failed="$$failed $$s"; \
	done; \
	if [ -n "$$failed" ]; then echo "bench-seeds: failed at seed(s)$$failed"; exit 1; fi; \
	echo "bench-seeds: OK"

# The full pre-commit gate: referenced from .claude/skills/verify/SKILL.md.
# Every check in it is exact; performance is measured by `bash bench/run.sh`.
verify: vet fmt lint build test race bench-test
	@echo "verify: OK"

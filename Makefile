GO ?= go

.PHONY: build test race vet lint verify bench bench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# graphlint: the repo-specific contracts (determinism, metered clock, seeded
# RNG, runtime-owned concurrency, error-return policy) plus the
# interprocedural proofs — hot-path allocation freedom and lock ordering.
# See DESIGN.md §3.9 and §3.14. -timing prints the per-check wall-time
# report; -budget fails the run (exit 2) if the whole analysis exceeds 5s,
# keeping the call-graph passes honest as the module grows.
lint:
	$(GO) run ./cmd/graphlint -timing -budget 5s ./...

test:
	$(GO) test ./...

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

# The full pre-commit gate: referenced from .claude/skills/verify/SKILL.md.
# Every check in it is exact; performance is measured by `bash bench/run.sh`.
verify: vet lint build test race bench-test
	@echo "verify: OK"

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

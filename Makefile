GO ?= go

.PHONY: build test race vet fmt lint verify bench-test bench-seeds fuzz

build:
	$(GO) build ./...

# The arm64 pass builds and vets the kernels' Go body, which is the only one
# off amd64 (internal/tensor's Axpy and Axpy4 are SSE2 assembly on amd64).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/gnn/

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
# crash-recovery paths, the parallel tensor/aggregation kernels, the
# serving tier's worker pools and batchers, the offline task engines
# that run on the serving tier's Pool, and the packages that start
# goroutines of their own: the GPU simulator and the matching and mining
# engines), plus internal/refmodel, whose FuzzAnalyticsVsSpec seeds run pregel
# and blogel over one shared CachedProvider at 2 and 4 workers. Under -race
# internal/tensor builds its Go kernel bodies in place of the SSE2 assembly,
# so the detector sees every kernel store.
race:
	$(GO) test -race ./internal/cluster/ ./internal/pregel/ ./internal/blogel/ ./internal/gnndist/ ./internal/tensor/ ./internal/gnn/ ./internal/gpusim/ ./internal/serve/ ./internal/gthinkerq/ ./internal/quegel/ ./internal/tthinker/ ./internal/fsm/ ./internal/match/ ./internal/mining/ ./internal/refmodel/

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

# Every fuzzer for 10 s each, beyond its committed seeds (which run with the
# unit tests). Every fuzzer runs; the target fails if any found a failing
# input, which go test saves under the package's testdata/fuzz. Kept out of
# verify and tier-1 because it takes a minute; CI runs it as a job.
FUZZ_TARGETS = FuzzCodec:./internal/storage/ FuzzPregelVsReference:./internal/pregel/ FuzzServeSim:./internal/serve/ FuzzQuegelVsBFS:./internal/quegel/ FuzzNeighborSampleSource:./internal/gnn/ FuzzOutboxVsModel:./internal/cluster/ FuzzCachedSourceVsModel:./internal/storage/ FuzzAnalyticsVsSpec:./internal/refmodel/ FuzzAxpyVsLoop:./internal/tensor/
fuzz:
	@failed=""; \
	for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t#*:}; \
		echo "fuzz: $$name"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s $$pkg || failed="$$failed $$name"; \
	done; \
	if [ -n "$$failed" ]; then echo "fuzz: failed:$$failed"; exit 1; fi; \
	echo "fuzz: OK"

# The full pre-commit gate: referenced from .claude/skills/verify/SKILL.md.
# Every check in it is exact; performance is measured by `bash bench/run.sh`.
verify: vet fmt lint build test race bench-test
	@echo "verify: OK"

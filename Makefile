GO ?= go

.PHONY: build test race vet vet-tool lint fmt bench bench-go bench-profile bench-sched bench-partitioned bench-partitioned-smoke bench-windowed bench-windowed-smoke bench-join bench-join-smoke bench-durability bench-durability-smoke bench-obs bench-obs-smoke bench-multiquery bench-multiquery-smoke check loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet-tool builds the repository's vet binary once so vet/lint runs
# reuse it instead of recompiling through `go run`.
VET_TOOL := bin/datacell-vet

vet-tool:
	$(GO) build -o $(VET_TOOL) ./cmd/datacell-vet

# vet runs the stock `go vet` passes plus the custom invariant analyzers
# (lockorder, atomicmix, capturerestore, errcmp — see docs/INVARIANTS.md
# and lockorder.conf).
vet: vet-tool
	./$(VET_TOOL) ./...

# lint is vet plus the external linters. staticcheck (curated set in
# staticcheck.conf) and govulncheck run only when installed: the CI lint
# job installs pinned versions; a hermetic local toolchain skips them
# with a notice.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipped (CI lint job runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipped (CI lint job runs it)"; \
	fi

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench measures the ingest→fire→emit hot path, the storage-level
# consumption primitives at several basket depths, and the partitioned
# single-query throughput at GOMAXPROCS 1/2/4 and 1/2/4 shards, writing
# the perf trajectory (with the pre-chunking baseline) to
# BENCH_results.json.
bench:
	$(GO) run ./cmd/hotpathbench -o BENCH_results.json

# bench-partitioned runs only the partitioned-throughput scenario at
# -cpus 1,2,4 (full workload) and prints the report to stdout.
bench-partitioned:
	$(GO) run ./cmd/hotpathbench -scenario partitioned -cpus 1,2,4 -o -

# bench-partitioned-smoke is the CI sanity run: tiny workload, still
# exercising the sharded ingest → shard pipelines → merge path.
bench-partitioned-smoke:
	$(GO) run ./cmd/hotpathbench -scenario partitioned -smoke -cpus 1,2,4 -o -

# bench-windowed runs the event-time windowed throughput scenario:
# flat vs sharded, in-order vs 10%-disordered input.
bench-windowed:
	$(GO) run ./cmd/hotpathbench -scenario windowed -cpus 1,2,4 -o -

# bench-windowed-smoke is the CI sanity run for the watermarked
# windowed path (sharded window runners + window-aligned merge).
bench-windowed-smoke:
	$(GO) run ./cmd/hotpathbench -scenario windowed -smoke -cpus 1,2,4 -o -

# bench-join runs the streaming-join throughput scenario: stream-stream
# symmetric-hash join with a WITHIN band (flat vs co-partitioned) and
# stream-table enrichment (flat vs broadcast).
bench-join:
	$(GO) run ./cmd/hotpathbench -scenario join -cpus 1,2,4 -o -

# bench-join-smoke is the CI sanity run: tiny workload, still exercising
# symmetric state, expiry, and the broadcast table hash.
bench-join-smoke:
	$(GO) run ./cmd/hotpathbench -scenario join -smoke -cpus 1,2,4 -o -

# bench-durability runs the durability scenario: WAL-off vs WAL-on
# ingest throughput (group-committed batches from concurrent ingesters)
# and dirty-crash recovery time against logs of growing size.
bench-durability:
	$(GO) run ./cmd/hotpathbench -scenario durability -o -

# bench-durability-smoke is the CI sanity run: tiny workload, still
# exercising group commit, the copy-and-reopen crash image, and replay.
bench-durability-smoke:
	$(GO) run ./cmd/hotpathbench -scenario durability -smoke -o -

# bench-obs runs the instrumentation-overhead A/B: the partitioned
# workload with the observability layer on vs off, interleaved
# best-of-3; fails if the instrumentation tax exceeds 5% ns/tuple.
bench-obs:
	$(GO) run ./cmd/hotpathbench -scenario obs -o -

# bench-obs-smoke is the CI sanity run: tiny workload, looser (25%)
# overhead gate since scheduler noise dominates short runs.
bench-obs-smoke:
	$(GO) run ./cmd/hotpathbench -scenario obs -smoke -o -

# bench-multiquery runs the shared-scan multi-query scenario: N
# continuous filters over one stream at N = 1, 100, 10k — the routed
# shared scan (predicate-indexed routing, common-subplan sharing)
# against the naive per-query replica arrangement.
bench-multiquery:
	$(GO) run ./cmd/hotpathbench -scenario multiquery -o -

# bench-multiquery-smoke is the CI sanity run: tiny workload, replica
# arm capped at 100 queries; still registers 10k routed queries.
bench-multiquery-smoke:
	$(GO) run ./cmd/hotpathbench -scenario multiquery -smoke -o -

# bench-go runs the paper-experiment testing.B benchmarks once each.
bench-go:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-profile reruns the partitioned scenario with CPU, allocation,
# mutex-contention, and blocking profiles armed, for hunting hot-path
# contention (inspect with `go tool pprof cpu.pprof` etc.). Profiling
# biases the timings, so the numbers printed here are not comparable to
# `make bench` output.
bench-profile:
	$(GO) run ./cmd/hotpathbench -scenario partitioned -cpus 1,4 -o - \
		-cpuprofile cpu.pprof -memprofile mem.pprof \
		-mutexprofile mutex.pprof -blockprofile block.pprof

# bench-sched runs the scheduler micro-benchmarks with -benchmem: the
# steady-state firing loop must report 0 allocs/op and ~0 claim-misses.
bench-sched:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/scheduler/

check: build vet fmt test

# loc prints the non-test Go line count of internal/datacell and of the
# whole module (excluding the separate perfbench module and its build
# cache) — the design-size progress metric.
LOC = find $(1) -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' -not -path './.bench_build/*' | xargs cat | wc -l

loc:
	@echo "internal/datacell: $$($(call LOC,internal/datacell))"
	@echo "module: $$($(call LOC,.))"

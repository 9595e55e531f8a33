# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build fmt-check test test-race test-flaky test-e2e test-chaos test-pooldebug test-trace test-cluster check vet bench-vet bench bench-smoke bench-par bench-gate bench-gate-quick bench-baseline tables examples cover fuzz fuzz-smoke loc clean

all: build vet test

check: build fmt-check vet bench-vet test test-race test-flaky test-e2e test-chaos test-pooldebug test-trace test-cluster fuzz-smoke bench-smoke examples bench-gate-quick

build:
	$(GO) build ./...

# Fails listing any file gofmt would rewrite (perfbench/ included).
fmt-check:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# perfbench/ is a module of its own (replace partree => ../), so
# `go build ./...` never compiles it; vet it here so an exported-API
# change that breaks the benchmark fails the check.
bench-vet:
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

# The PRAM runtime executes every For body concurrently; run the
# whole suite under the race detector to keep statement bodies honest.
test-race:
	$(GO) test -race ./...

# Tests that once flaked under the race detector, repeated so a
# regression of their synchronization shows: the graceful drain waits
# for the batcher to hold every job, and the single-flight test holds
# its flight open until every waiter has joined it. The PRAM scheduler's
# coverage and cancellation tests ride along: every index of every
# statement must run exactly once, whatever the workers' chunk claims
# and however an earlier statement was cancelled.
test-flaky:
	$(GO) test -race -count=30 -run '^(TestE2EGracefulDrain|TestCacheSingleflightCollapse)$$' ./internal/serve
	$(GO) test -race -count=30 -run '^(TestForMatchesSerialLoop|TestForRangeCoversOnceUnderStealing|TestForRangeCallCountTolerance|TestForFewerElementsThanWorkers|TestWorkerCountReducedToChunks|TestSkewedStatementObserved|TestCancel.*)$$' ./internal/pram

# End-to-end tests of the partreed HTTP service: differential checks
# against the serial oracles, concurrent-client batching, load shedding
# and graceful drain, all through real httptest round trips.
test-e2e:
	$(GO) test -race -run 'TestE2E' ./internal/serve

# Cancellation & fault-injection layer: per-kernel abort/unwind tests,
# the batcher's deadline/expiry/abort semantics, and the partreed chaos
# scenarios (mixed good/slow/oversized traffic), all under -race.
test-chaos:
	$(GO) test -race -run 'TestCancel|TestFaultInjection|TestChaos' . ./internal/pram ./internal/serve ./internal/cluster

# The pooldebug build tag arms the workspace arena's misuse detectors
# (double-release ledger, released-slab poisoning); run every pooled
# kernel's tests under it so ownership bugs fail loudly. The root package
# rides along for the cancellation-unwind suite: an abort must release
# every slab exactly once.
test-pooldebug:
	$(GO) test -tags pooldebug . ./internal/pool ./internal/boolmat ./internal/matrix ./internal/monge ./internal/lincfl ./internal/obst ./internal/hufpar ./internal/serve ./internal/cluster

# Observability suite: the span ring and Chrome-trace export, the PRAM
# phase/worker span accounting (including the disarmed zero-alloc bar),
# the façade trace plumbing, and the /metricsz golden + traced-request
# e2e layer — everything the tracing PR added, under -race where the
# concurrency matters.
test-trace:
	$(GO) test -race ./internal/trace
	$(GO) test -race -run 'TestTracer|TestPhaseSpans|TestReentrant|TestWorkerSlices|TestSerialStatement|TestSetTracer' ./internal/pram
	$(GO) test -race -run 'TestMetricsz|TestTraced|TestStatsz' ./internal/serve
	$(GO) test -race -run 'TestOptionsTrace|TestTraceContext|TestTraceDifferential' .

# Cluster tier: the consistent-hash ring property tests, breaker and
# hedge-tracker units, and the gateway e2e suite (routing affinity,
# hedging, failover, drain/bleed, live membership, stats aggregation),
# all under -race. The TestChaos* scenarios also run via test-chaos.
test-cluster:
	$(GO) test -race ./internal/cluster

# Regenerate the experiment measurements (EXPERIMENTS.md tables).
tables:
	$(GO) run ./cmd/benchtables

bench:
	$(GO) test -bench=. -benchmem ./...

# Every benchmark once, at the short sizes, with no test: the E1–E8
# benchmarks and ablations must still build and run to the end, even
# though nothing times them here.
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

# Multicore scaling sweep (experiment E12): the four kernels of the
# lib-par benchmark workload and the partreed batch path, one façade
# call each, at P ∈ {1,2,4,8} with per-op wall time, process CPU and
# barrier wait.
bench-par:
	$(GO) run ./cmd/benchtables -exp E12

# Perf-regression gate: measure E11 (pooled allocs/op), E12 (parallel
# speedup sweep), E13 (tracing disarmed vs armed), E14 (resident-pool
# dispatch) and E16 (cluster scaling and hedged tail latency), then
# check them against cmd/benchgate's one table of budgets. E11 and E14
# are budgeted against the pre-arena and spawn-per-statement arms
# recorded in BENCH_BASELINE.json: ≤30% of the recorded unpooled
# allocs/op and ≤60% of the recorded spawn dispatch cost. The other rows hold the baseline
# bands, the ≥2x P=4 lincfl/leafpattern speedup and ≥1.8x 4-backend cluster
# scaling (both skipped with a notice on hosts with fewer than 4 cores,
# where the ratio is physically capped), the ≤2% disarmed-tracing band,
# zero steady-state goroutine spawns / machine constructions / failed
# requests and a ≥10% hedged-p99 improvement.
bench-gate:
	$(GO) run ./cmd/benchtables -exp E11,E12,E13,E14,E16 | $(GO) run ./cmd/benchgate -baseline BENCH_BASELINE.json

# Short-iteration gate used by `make check`: shorter E12 timing loops
# and single-rep E13/E14 timing. The E12 and E16 reports record the short
# run, and benchgate switches every row to its short-mode bound so CI
# timing noise cannot flake the build.
bench-gate-quick:
	$(GO) run ./cmd/benchtables -exp E11,E12,E13,E14,E16 -short | $(GO) run ./cmd/benchgate -baseline BENCH_BASELINE.json

# Refresh the committed benchmark baseline (schema 2: E11 + E12 + E13 +
# E14 + E16) from the current tree. The recorded E11 unpooled rows
# and E14 dispatch_spawn_ns are carried forward from the existing file.
bench-baseline:
	$(GO) run ./cmd/benchtables -exp E11,E12,E13,E14,E16 | $(GO) run ./cmd/benchgate -baseline BENCH_BASELINE.json -write

# Run every example program to the end: they call the façade as a user
# would, so a façade change that only compiles still has to run here.
examples:
	$(GO) run ./examples/ambiguity
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/textcompress
	$(GO) run ./examples/dictionary
	$(GO) run ./examples/language
	$(GO) run ./examples/linebreak

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

fuzz:
	$(GO) test -fuzz=FuzzDecodeStream -fuzztime=30s ./internal/huffman
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=30s ./internal/huffman
	$(GO) test -fuzz=FuzzLeafPattern -fuzztime=30s ./internal/leafpattern
	$(GO) test -fuzz=FuzzBoolOps -fuzztime=30s ./internal/boolmat
	$(GO) test -fuzz=FuzzLinCFL -fuzztime=30s ./internal/lincfl
	$(GO) test -fuzz=FuzzCombineRuns -fuzztime=30s ./internal/lincfl
	$(GO) test -fuzz=FuzzDecodeRequest -fuzztime=30s ./internal/serve
	$(GO) test -fuzz=FuzzConcaveMultiply -fuzztime=30s ./internal/monge
	$(GO) test -fuzz=FuzzRingKey -fuzztime=30s ./internal/cluster
	$(GO) test -fuzz=FuzzCancelUnwind -fuzztime=30s .

# Quick fuzz pass folded into `make check`: ~5s per target. Long enough
# to catch shallow regressions in the decoders and the cancellation
# unwind path on every checkin, short enough not to dominate CI; use
# `make fuzz` for real exploration.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeStream -fuzztime=5s ./internal/huffman
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=5s ./internal/huffman
	$(GO) test -fuzz=FuzzLeafPattern -fuzztime=5s ./internal/leafpattern
	$(GO) test -fuzz=FuzzBoolOps -fuzztime=5s ./internal/boolmat
	$(GO) test -fuzz=FuzzLinCFL -fuzztime=5s ./internal/lincfl
	$(GO) test -fuzz=FuzzCombineRuns -fuzztime=5s ./internal/lincfl
	$(GO) test -fuzz=FuzzDecodeRequest -fuzztime=5s ./internal/serve
	$(GO) test -fuzz=FuzzConcaveMultiply -fuzztime=5s ./internal/monge
	$(GO) test -fuzz=FuzzRingKey -fuzztime=5s ./internal/cluster
	$(GO) test -fuzz=FuzzCancelUnwind -fuzztime=5s .

# Go line counts per package directory, non-test and test files apart,
# with the perfbench/ module left out. Quote these in CHANGES.md rather
# than counting by hand.
loc:
	@find . -path ./perfbench -prune -o -name '*.go' -print | xargs awk ' \
		{ d = FILENAME; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); if (d == "") d = "."; \
		  seen[d] = 1; if (FILENAME ~ /_test\.go$$/) { t[d]++; tt++ } else { n[d]++; nt++ } } \
		END { printf "%-24s %8s %8s\n", "package", "non-test", "test"; \
		      for (d in seen) printf "%-24s %8d %8d\n", d, n[d], t[d] | "sort"; close("sort"); \
		      printf "%-24s %8d %8d\n", "total", nt, tt }'

clean:
	rm -f cover.out test_output.txt bench_output.txt

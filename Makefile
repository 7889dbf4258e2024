# Developer entry points. `make check` is the full pre-merge gate.

GO ?= go

.PHONY: check fmt vet build test race serve-smoke chaos corrupt-smoke fuzz-smoke trace-smoke bench bench-kernels bench-json bench-smoke bench-compare bench-compare-smoke kernel-layout experiments

check: fmt vet build test race serve-smoke chaos corrupt-smoke fuzz-smoke trace-smoke bench-smoke bench-compare-smoke

# Every tracked Go file must be gofmt-clean. The benchmark's build directory
# .bench_build/ is ignored by git, and excluded here as well.
fmt:
	@files=$$(git ls-files '*.go' ':!:.bench_build/**' | xargs gofmt -l) || exit 1; \
	if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The two distributed engines run real goroutines; keep them race-clean,
# along with the kernel worker pool, the EM and sketch engines that fan out
# across both platforms, the Mahout and SVD-bidiagonalization baselines whose
# jobs run through mapred's map store, the MLlib baseline's rdd jobs, the
# shared column-mean pass, the accuracy metric (each block of sampled rows
# forms its reconstructions with one product on the pool), the iterative
# driver (final-flush retry) and the cluster (interrupt watchdog).
race:
	$(GO) test -race ./internal/rdd ./internal/mapred ./internal/parallel ./internal/ppca ./internal/rsvd ./internal/serve \
		./internal/ssvd ./internal/svdbidiag ./internal/covpca ./internal/colmean ./internal/accuracy ./internal/driver \
		./internal/cluster

# Serving-layer smoke: registry round-trip, both wire protocols, the
# zero-allocation gate on the binary hot path, and the graceful drain.
serve-smoke:
	$(GO) test -count=1 ./internal/serve

# Fault-injection suite under the race detector: once with the fixed default
# seed, then with a randomized seed, logged so any failure is replayable via
# SPCA_CHAOS_SEED=<seed> make chaos.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' .
	@seed=$$(od -An -N4 -tu4 /dev/urandom | tr -d ' '); \
	echo "chaos: randomized seed $$seed (replay with SPCA_CHAOS_SEED=$$seed)"; \
	SPCA_CHAOS_SEED=$$seed $(GO) test -race -count=1 -run 'TestChaos' .

# Data-integrity suite: payload-corruption and checkpoint-corruption
# injection, multi-generation recovery, quarantine, and the clean-run
# snapshot golden. Same fixed-then-randomized seed discipline as chaos.
corrupt-smoke:
	$(GO) test -race -count=1 -run 'TestCorrupt' .
	@seed=$$(od -An -N4 -tu4 /dev/urandom | tr -d ' '); \
	echo "corrupt: randomized seed $$seed (replay with SPCA_CHAOS_SEED=$$seed)"; \
	SPCA_CHAOS_SEED=$$seed $(GO) test -race -count=1 -run 'TestCorrupt' .

# Short randomized pass over the matrix-reader fuzzers (the seed corpus
# always runs; this adds a few seconds of real mutation). Part of `make
# check` so the parsers stay panic-free on hostile input.
fuzz-smoke:
	$(GO) test ./internal/matrix -run '^$$' -fuzz FuzzReadSparse$$ -fuzztime 5s
	$(GO) test ./internal/matrix -run '^$$' -fuzz FuzzReadSparseBinary$$ -fuzztime 5s
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz FuzzReadSnapshot$$ -fuzztime 5s

# End-to-end observability gate: fit with a JSONL observer, re-parse the
# stream, and require the reconstructed trace to fingerprint identically to
# the in-memory collector's; then validate the Chrome trace_event export.
trace-smoke:
	$(GO) test -count=1 -run 'TestTraceSmoke' .

bench:
	$(GO) test -bench=. -benchmem

bench-kernels:
	$(GO) test ./internal/matrix -run '^$$' -bench BenchmarkKernels
	$(GO) test . -run '^$$' -bench BenchmarkParallelSpeedup

# Machine-readable benchmark baseline: in-place kernels, the sampled error
# metric, steady-state mapper allocations, the end-to-end fits (still named
# *Pooled so they pair with earlier baselines), the sketch engines' fit
# paths, and the serving layer,
# written to $(BENCH_JSON) for diffing against the committed BENCH_*.json
# files. The default is an ignored scratch file, so a plain run never
# overwrites a committed baseline; name a BENCH_<n>.json to record one.
BENCH_JSON ?= .bench-json.json
bench-json:
	{ $(GO) test ./internal/matrix -run '^$$' -bench BenchmarkKernelsInPlace -benchmem -benchtime 20x; \
	  $(GO) test ./internal/accuracy -run '^$$' -bench BenchmarkErr -benchmem -benchtime 20x; \
	  $(GO) test ./internal/ppca -run '^$$' -bench 'BenchmarkSteady|Pooled|BenchmarkFitStream' -benchmem -benchtime 10x; \
	  $(GO) test ./internal/rsvd -run '^$$' -bench 'BenchmarkFitRSVD' -benchmem -benchtime 10x; \
	  $(GO) test ./internal/ssvd -run '^$$' -bench 'BenchmarkFitSSVD' -benchmem -benchtime 10x; \
	  $(GO) test ./internal/serve -run '^$$' -bench 'BenchmarkServe' -benchmem -benchtime 50x; } \
	| $(GO) run ./cmd/benchjson -out $(BENCH_JSON)

# Diff two committed baselines: >10% ns/op growth or any allocs/op increase
# on a common benchmark exits 1. `make bench-compare` checks the two most
# recent baselines; override with BENCH_OLD/BENCH_NEW. ns/op is wall-clock
# and baselines are recorded at different times, so cross-baseline ns diffs
# are only meaningful under comparable machine conditions (allocs/op is
# load-independent); to validate a PR under ambient drift, regenerate both
# sides in one sitting (`git stash` the change for the old side) or raise
# -ns-tol via `go run ./cmd/benchjson -compare -ns-tol 0.5 old new`.
BENCH_OLD ?= BENCH_19.json
BENCH_NEW ?= BENCH_20.json
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(BENCH_OLD) $(BENCH_NEW)

# Fixture-based smoke of the compare gate (no benchmarks re-run); part of
# `make check` so the comparator itself cannot rot.
bench-compare-smoke:
	@$(GO) run ./cmd/benchjson -compare cmd/benchjson/testdata/old.json cmd/benchjson/testdata/new.json >/dev/null
	@! $(GO) run ./cmd/benchjson -compare cmd/benchjson/testdata/old.json cmd/benchjson/testdata/regressed.json >/dev/null 2>&1
	@echo "bench-compare-smoke: comparator gates fixtures correctly"

# One-iteration smoke of the bench harness and the JSON converter; part of
# `make check` so the pipeline cannot rot. The throwaway output stays out of
# the committed baselines.
bench-smoke:
	@$(GO) test ./internal/ppca -run '^$$' -bench BenchmarkSteady -benchmem -benchtime 1x \
	| $(GO) run ./cmd/benchjson -out .bench-smoke.json
	@rm -f .bench-smoke.json

# Code layout of the hot kernels in the benchmark's binary: address, size and
# address mod 64 of each, from `go tool nm`. A loop that straddles a 64-byte
# line can run much slower, and an edit to any package linked before
# internal/matrix can move the kernels' phase, so compare this output with
# the parent's when a change shifts a kernel's share of a profile. The binary
# is built as perfbench/run.sh builds it, into a temporary directory.
LAYOUT_SYMS = 'matrix.SymOuterAdd' 'matrix.(*mulBody).Run' 'matrix.(*mulTBody).Run' \
	'matrix.(*mulBTBody).Run' 'matrix.(*Dense).CenteredMulInto' 'ppca.(*partial).add' \
	'ppca.(*partial).scatter'
kernel-layout:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; b="$(CURDIR)/.bench_build"; \
	(cd perfbench && GOCACHE="$$b/gocache" GOPATH="$$b/gopath" GOTOOLCHAIN=local GOPROXY=off \
		XDG_CONFIG_HOME="$$b/config" $(GO) build -o "$$tmp/perfbench" .) || exit 1; \
	$(GO) tool nm -n -size "$$tmp/perfbench" > "$$tmp/nm" || exit 1; \
	printf '%-32s %10s %6s %6s\n' symbol address size mod64; \
	for sym in $(LAYOUT_SYMS); do \
		set -- $$(awk -v s="spca/internal/$$sym" '$$4 == s { print $$1, $$2 }' "$$tmp/nm"); \
		if [ $$# -ne 2 ]; then echo "kernel-layout: $$sym not in the binary" >&2; exit 1; fi; \
		printf '%-32s %10s %6s %6d\n' "$$sym" "$$1" "$$2" $$((0x$$1 % 64)); \
	done

experiments:
	$(GO) run ./cmd/experiments -exp all -profile quick

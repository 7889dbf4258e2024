# Developer entry points. `make check` is the full pre-merge gate.

GO ?= go

.PHONY: check fmt vet build cross test race serve-smoke chaos corrupt-smoke fuzz-smoke trace-smoke bench bench-kernels bench-json bench-smoke bench-compare bench-compare-smoke kernel-layout experiments

check: fmt vet build cross test race serve-smoke chaos corrupt-smoke fuzz-smoke trace-smoke bench-smoke bench-compare-smoke

# Every tracked Go file must be gofmt-clean. The benchmark's build directory
# .bench_build/ is ignored by git, and excluded here as well.
fmt:
	@files=$$(git ls-files '*.go' ':!:.bench_build/**' | xargs gofmt -l) || exit 1; \
	if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The row kernels have AVX assembly on amd64 and Go loops everywhere else;
# vet and build two other architectures so the Go-only path cannot rot.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

# The rdd accumulator folds each task's value once every lower-numbered task
# is folded: at one worker it never waits, at four tasks finish out of order.
# mapred runs its tasks on the same worker count, and the sketch engines'
# mappers come from per-fit pools. Run the engines that lean on them at both.
test:
	$(GO) test ./...
	$(GO) test -count=1 -cpu 1,4 ./internal/rdd ./internal/ppca ./internal/mapred ./internal/rsvd \
		./internal/ssvd ./internal/colmean

# The two distributed engines run real goroutines; keep them race-clean,
# along with the kernel worker pool, the EM and sketch engines that fan out
# across both platforms (the sketch mappers come from per-fit pools), the
# Mahout baseline, whose projection job is rsvd's on the slab store and whose
# Bt job runs through mapred's map store, the SVD-bidiagonalization baseline
# on the map store, the MLlib baseline's rdd jobs, the
# shared column-mean pass, the accuracy metric (each block of sampled rows
# forms its reconstructions with one product on the pool), the iterative
# driver (final-flush retry) and the cluster (interrupt watchdog). A race
# build runs the matrix row kernels as Go loops, not AVX assembly, so the
# detector sees every element they touch.
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

# Short randomized pass over the fuzzers of every text and binary file
# reader: the matrix files, snapshots and model files (the seed corpus
# always runs; this adds a few seconds of real mutation). Part of `make
# check` so the parsers stay panic-free on hostile input.
fuzz-smoke:
	$(GO) test ./internal/matrix -run '^$$' -fuzz FuzzReadSparse$$ -fuzztime 5s
	$(GO) test ./internal/matrix -run '^$$' -fuzz FuzzReadSparseBinary$$ -fuzztime 5s
	$(GO) test ./internal/matrix -run '^$$' -fuzz FuzzReadDense$$ -fuzztime 5s
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz FuzzReadSnapshot$$ -fuzztime 5s
	$(GO) test . -run '^$$' -fuzz FuzzLoadModel$$ -fuzztime 5s

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
BENCH_OLD ?= BENCH_23.json
BENCH_NEW ?= BENCH_24.json
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
# address mod 64 of each, from `go tool nm`, and the address mod 64 of each
# loop head (every backward branch target, in address order) from `go tool
# objdump`. A loop that straddles a 64-byte line can run much slower, and an
# edit to any package linked before internal/matrix or internal/ppca
# (internal/checkpoint is) can move the Go kernels' phase, so compare this
# output with the parent's when a change shifts a kernel's share of a
# profile. The AVX kernels (the .abi0 symbols) align their loop heads with
# PCALIGN, so theirs read 0. The sparse-row kernels (MulAdd, RowBlocks'
# Scatter, SubOuter's body) sit in internal/matrix; the ppca symbols are
# their EM callers. A symbol missing from the binary fails the target, so
# CI runs it. The binary is built as perfbench/run.sh builds it, into a
# temporary directory.
LAYOUT_SYMS = 'matrix.SymOuterAdd' 'matrix.(*mulBody).Run' 'matrix.(*mulTBody).Run' \
	'matrix.(*mulBTBody).Run' 'matrix.(*Dense).CenteredMulInto' 'matrix.axpyAVX.abi0' \
	'matrix.axpy4AVX.abi0' 'matrix.SparseVector.MulAdd' 'matrix.(*RowBlocks).Scatter' \
	'matrix.(*subOuterBody).Run' 'ppca.(*partial).add' 'ppca.(*rowScratch).latent' \
	'ppca.(*rowScratch).ss3Term' 'ppca.localPass.func1' 'ppca.localSS3.func1'
LOOP_HEADS = function hex(s,  n, i) { n = 0; for (i = 3; i <= length(s); i++) \
	n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1; return n } \
	$$4 ~ /^J/ && $$5 ~ /^0x[0-9a-f]+$$/ { t = hex($$5); if (t <= hex($$2)) print t }
kernel-layout:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; b="$(CURDIR)/.bench_build"; \
	(cd perfbench && GOCACHE="$$b/gocache" GOPATH="$$b/gopath" GOTOOLCHAIN=local GOPROXY=off \
		XDG_CONFIG_HOME="$$b/config" $(GO) build -o "$$tmp/perfbench" .) || exit 1; \
	$(GO) tool nm -n -size "$$tmp/perfbench" > "$$tmp/nm" || exit 1; \
	printf '%-32s %10s %6s %6s  %s\n' symbol address size mod64 'loop heads mod64'; \
	for sym in $(LAYOUT_SYMS); do \
		set -- $$(awk -v s="spca/internal/$$sym" '$$4 == s { print $$1, $$2 }' "$$tmp/nm"); \
		if [ $$# -ne 2 ]; then echo "kernel-layout: $$sym not in the binary" >&2; exit 1; fi; \
		re=$$(printf '%s' "spca/internal/$$sym" | sed 's/[][().*]/\\&/g'); \
		heads=$$($(GO) tool objdump -s "^$$re\$$" "$$tmp/perfbench" | awk '$(LOOP_HEADS)' | sort -n -u | \
			awk '{ printf "%s%d", (NR > 1 ? " " : ""), $$1 % 64 }'); \
		printf '%-32s %10s %6s %6d  %s\n' "$$sym" "$$1" "$$2" $$((0x$$1 % 64)) "$${heads:--}"; \
	done

experiments:
	$(GO) run ./cmd/experiments -exp all -profile quick

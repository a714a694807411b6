# Local entry points mirroring .github/workflows/ci.yml, so a green
# `make ci` means a green CI run.

GO ?= go

.PHONY: build perfbench-build test race lint escape-rebaseline fmt golden reference bench bench-smoke fuzz-smoke audit diff-fuzz diff-fuzz-long ci

build:
	$(GO) build ./...

# perfbench-build: build and vet the benchmark module (perfbench/, its
# own go.mod over this one), so a main-module API change that breaks
# the benchmark fails here rather than in the benchmark run.
perfbench-build:
	cd perfbench && $(GO) build ./... && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# lint = custom analyzers (determinism, panicstyle, statsreg, hotpath +
# the directives meta-check) + go vet via the multichecker, the compiler
# escape-analysis gate against the committed lint_escape_baseline.json,
# and a gofmt cleanliness check.
lint:
	$(GO) run ./cmd/nurapidlint ./...
	$(GO) run ./cmd/nurapidlint -escapecheck ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# escape-rebaseline: refresh lint_escape_baseline.json after a deliberate
# hot-path change; review and commit the diff.
escape-rebaseline:
	$(GO) run ./cmd/nurapidlint -escapecheck -rebaseline ./...

fmt:
	gofmt -w .

# golden: regenerate the small-run paper outputs (-n 50000 -seed 1) that
# TestSmallRunGolden (cmd/experiments) compares an in-process render
# against, after a deliberate re-baseline; review and commit the diff.
# The run list is the test's goldenExperiments.
GOLDEN = cmd/experiments/testdata/golden-n50000-seed1.txt
golden:
	set -e; for e in all sweep-capacity sweep-block sweep-tech predictor cmp \
		"cmp -sharing private" "cmp -cores 3"; do \
		$(GO) run ./cmd/experiments -experiment $$e -n 50000 -seed 1 -q; \
	done > $(GOLDEN).tmp
	mv $(GOLDEN).tmp $(GOLDEN)

# reference: regenerate the committed full-length paper outputs at
# -n 4000000 -seed 1: experiments_output.txt (the whole campaign) and
# sweeps_output.txt (the capacity, block and technology sweeps, in that
# order). CI runs it and fails if either file changes; after a
# deliberate re-baseline, review and commit the diff.
REFERENCE_FLAGS = -n 4000000 -seed 1 -q
reference:
	$(GO) run ./cmd/experiments -experiment all $(REFERENCE_FLAGS) > experiments_output.txt.tmp
	mv experiments_output.txt.tmp experiments_output.txt
	set -e; for e in sweep-capacity sweep-block sweep-tech; do \
		$(GO) run ./cmd/experiments -experiment $$e $(REFERENCE_FLAGS); \
	done > sweeps_output.txt.tmp
	mv sweeps_output.txt.tmp sweeps_output.txt

# bench: one iteration of every Go benchmark (the access-path and core
# benchmarks), to catch bit-rot without waiting for real measurements
# (the timed gates are bench-smoke's).
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-smoke: one timed pass over the four perf contracts, written to
# BENCH_smoke.json (one section each, every gate's verdict recorded):
#   core   - headline NuRAPID ns/access <= 1.10x the committed record,
#            0 allocs per replayed batch;
#   cmp    - shared-L2 accesses/s at 1/2/4/8 cores >= 0.85x the record;
#   obs    - serial Fig6 and 2-core CMP, probe-free vs nil-probe vs full
#            probes: byte-identical renders, CMP disabled-probe
#            overhead <= 3%, enabled-probe overhead within its budget;
#   runner - replay pipeline at 1/2/4/8/16 workers with identical
#            fingerprints, efficiency >= 0.5 at 4 workers (skipped when
#            GOMAXPROCS < 4), serial vs parallel Fig6 byte-identical.
# A <4-proc run never replaces a runner section whose efficiency gate
# was enforced.
bench-smoke:
	BENCH_SMOKE_JSON=$(CURDIR)/BENCH_smoke.json $(GO) test -count=1 -run '^TestBenchSmoke$$' -v .

# fuzz-smoke: a short native-fuzzing pass over the three parsers — the
# JSONL obs-trace reader (and the probes that aggregate what it
# decodes), the binary workload trace reader and the differential
# harness's artifact reader —, over the core's per-instruction timing
# engine against its cycle-stepped oracle, on one core and in lockstep
# on up to six, and over nurapid.New's configuration checks.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzDecodeTrace -fuzztime=15s ./internal/obs/
	$(GO) test -run '^$$' -fuzz=FuzzTraceReader -fuzztime=15s ./internal/workload/
	$(GO) test -run '^$$' -fuzz=FuzzReadArtifact -fuzztime=15s ./internal/refmodel/difftest/
	$(GO) test -run '^$$' -fuzz=FuzzBackEndMatchesStep -fuzztime=15s ./internal/cpu/
	$(GO) test -run '^$$' -fuzz=FuzzLockstepMatchesStep -fuzztime=15s ./internal/cpu/
	$(GO) test -run '^$$' -fuzz=FuzzNewConfig -fuzztime=15s ./internal/nurapid/

# audit: the randomized invariant storm at full length.
audit:
	$(GO) test ./internal/nurapid/ -run TestAuditedAccessStorm -v

# diff-fuzz: the differential oracle at CI depth — every policy-matrix
# cell (placements x promotions x distance policies x triggers x two
# geometries) runs every adversarial workload for >=10k accesses against
# both the fast implementation and the executable spec, under -race.
# Divergences are shrunk and dumped as JSONL into $(DIFF_FUZZ_ARTIFACTS)
# (defaults to the test's temp dir).
diff-fuzz:
	DIFF_FUZZ=1 $(GO) test -race -count=1 -v -run 'TestDifferentialMatrix|TestSeededFault' ./internal/refmodel/difftest/

# diff-fuzz-long: the nightly soak (100k accesses per cell). Set
# DIFF_FUZZ_ARTIFACTS to keep shrunk reproducers outside the temp dir.
diff-fuzz-long:
	DIFF_FUZZ_LONG=1 $(GO) test -count=1 -timeout 60m -v -run TestDifferentialMatrix ./internal/refmodel/difftest/

ci: build perfbench-build test race lint reference bench bench-smoke fuzz-smoke diff-fuzz

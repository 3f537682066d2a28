GO ?= go

.PHONY: check build test vet race chaos bench bench-parallel bench-core bench-alloc pfreport cpistack spans reference

# The full gate used before committing: vet, build, race-enabled tests
# (including the scaled-down parallel-harness sweep; see harness_test.go),
# then the fault-injection suite.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) chaos

# Fault-injection suite: injected livelocks, dropped completions, and
# corrupted stride tables must be caught by the watchdog / invariant
# checker (internal/faults); a poisoned run must degrade to ERR cells
# without disturbing its siblings (internal/harness); and the result
# store must quarantine corruption, survive torn writes and kill-9,
# retry transient faults to byte-identical output, and drain gracefully
# (internal/store, internal/faults, internal/harness).
chaos:
	$(GO) test -timeout 10m -run 'Chaos|Stalled|Dropped|Corrupt|CleanRun|Poisoned|CrashDump|Taxonomy|Store|Torn|Quarantine|Resume|Flake|Retry|Drain|RunTimeout|Sanitize' \
		./internal/faults/... ./internal/harness/... ./internal/store/...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Prefetch attribution demo: run the GS-table sweep with per-(source, PC)
# lifecycle attribution enabled, then render the per-source summary and
# per-PC breakdown with mtstat pf. Leaves the raw JSONL in
# pfreport.jsonl for further post-processing (e.g. mtstat pf -run REGEX).
pfreport:
	$(GO) run ./cmd/mtpref -waves 1 -pfreport pfreport.jsonl run gstable > /dev/null
	$(GO) run ./cmd/mtstat pf -bypc pfreport.jsonl

# Cycle-accounting demo: run the GS-table sweep with CPI stacks enabled,
# then render the per-run breakdown (each bucket's share of all
# core-cycles) with mtstat cpi. Leaves the raw JSONL in cpistack.jsonl
# for further post-processing (e.g. mtstat cpi -bycore, or the epoch time
# series under the "cpiepoch"/"cpitol" records).
cpistack:
	$(GO) run ./cmd/mtpref -waves 1 -cpistack cpistack.jsonl run gstable > /dev/null
	$(GO) run ./cmd/mtstat cpi cpistack.jsonl

# Span-tracing demo: run the GS-table sweep with request span sampling
# enabled, then render the per-source latency waterfall (where each
# sampled request's end-to-end cycles went: MRQ, NoC, DRAM queueing,
# DRAM service, response NoC) with mtstat span. Leaves the raw JSONL in
# spans.jsonl for further post-processing (e.g. mtstat span -byrun).
spans:
	$(GO) run ./cmd/mtpref -waves 1 -spans spans.jsonl run gstable > /dev/null
	$(GO) run ./cmd/mtstat span spans.jsonl

# Full-output golden: regenerate every table of the paper's evaluation
# and diff it against the committed results_reference.txt. Only the
# wall-clock "completed in" lines are normalised away; every table byte
# must match.
reference:
	$(GO) run ./cmd/mtpref all > reference.out
	sed 's/completed in .*/completed/' results_reference.txt > reference.want
	sed 's/completed in .*/completed/' reference.out | diff reference.want -
	@rm -f reference.out reference.want
	@echo output matches results_reference.txt

# Records the parallel harness's wall-clock scaling: per-worker-count
# sweep times plus the headline speedup-j4 metric.
bench-parallel:
	$(GO) test -bench='Sweep' -run=^$$ -benchtime=1x .

# Core-loop benchmarks, archived as BENCH_core.json: absolute simulation
# rate (cycles/s), allocation counts, the fraction of cycles the
# event-driven skipper elided, and the paired skip-vs-noskip wall-clock
# speedup per memory-intensive benchmark. Override BENCHTIME=1x for a
# CI smoke run. The default 3x keeps a run short, and allocs/op and skip
# fractions are exact at any BENCHTIME, but single wall-clock rows at 3x
# are noise-dominated on a small host (conv/skip has measured slower than
# conv/noskip while visiting 18% fewer cycles): a per-row speed claim
# needs a larger BENCHTIME or the spread of repeated runs.
BENCHTIME ?= 3x
bench-core:
	$(GO) test -bench='CoreRun|CoreSkipSpeedup' -benchmem -run=^$$ -benchtime=$(BENCHTIME) . > bench_core.tmp
	$(GO) run ./cmd/benchjson < bench_core.tmp > BENCH_core.json
	@rm bench_core.tmp
	@echo wrote BENCH_core.json

# GC-pressure gate, archived as BENCH_alloc.json: allocs/op, bytes/op
# and cycles/s per workload with observability attached and detached.
# benchjson compares each result against the committed per-benchmark
# budgets in ci/alloc_budget.json and fails (after writing the JSON, so
# the artifact survives) when a budget is exceeded — allocation-rate
# regressions in the steady-state loop break the build instead of
# silently eroding sweep throughput.
bench-alloc:
	$(GO) test -bench='CoreAlloc' -benchmem -run=^$$ -benchtime=$(BENCHTIME) . > bench_alloc.tmp
	$(GO) run ./cmd/benchjson -budget ci/alloc_budget.json < bench_alloc.tmp > BENCH_alloc.json
	@rm bench_alloc.tmp
	@echo wrote BENCH_alloc.json

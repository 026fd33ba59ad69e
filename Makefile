# Convenience targets; every command works from a plain checkout with
# PYTHONPATH=src (no install needed).

PY := PYTHONPATH=src python

.PHONY: test lint lint-changed bench serve-bench shard-bench replica-bench read-bench bench-suite bench-compare trace-smoke perfbench perfbench-selftest perf-pairs

# Front-door serving benchmark (perfbench/): one workload, one seed;
# TRACE=1 adds the per-layer table.  Override for another run, e.g.
# make perfbench WORKLOAD=write_churn SEED=2 TRACE=1
WORKLOAD ?= read_hot
SEED ?= 1
TRACE ?= 0
# Pairs for make perf-pairs (BASE is required: the revision to compare
# against, e.g. BASE=HEAD~1).
PAIRS ?= 10

# Shard counts / rounds for the sharded serving benchmark; override for
# a quick smoke: make shard-bench SHARD_COUNTS=1,2 SHARD_ROUNDS=2
SHARD_COUNTS ?= 1,4,8
SHARD_ROUNDS ?= 4

test:
	$(PY) -m pytest -x -q

# Invariant linter (lock/async discipline, determinism, resource
# safety, span hygiene, lock order, router published-state
# republication) over src/,
# scripts/, benchmarks/ and examples/, gated on the committed
# baseline; plus ruff when it is installed (CI always has it; a plain
# checkout may not).
lint:
	$(PY) -m repro.cli lint --root . --baseline lint-baseline.json
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src; \
	else \
		echo "ruff not installed; skipping style pass (CI runs it)"; \
	fi

# Fast pre-commit loop: lint only the files touched since HEAD.
lint-changed:
	$(PY) -m repro.cli lint --root . --changed

# Headline optimized-vs-naive scenarios; writes BENCH_perf.json.
bench:
	$(PY) -m repro.bench

# Durable serving workload: sustained insert/query mix through the
# WAL-backed store plus crash-recovery timings; merges into
# BENCH_perf.json.
serve-bench:
	$(PY) -m repro.bench --serving

# Sharded serving tier at several shard counts (mixed workload through
# the router + worker processes); merges into BENCH_perf.json.
shard-bench:
	$(PY) -m repro shard-bench --shards $(SHARD_COUNTS) --rounds $(SHARD_ROUNDS)

# Replication tier: follower catch-up lag and promote-vs-cold-open
# failover time; merges into BENCH_perf.json.
replica-bench:
	$(PY) -m repro.bench --replica

# Read path: block-versioned result cache vs uncached engine, sharded
# routing invariant, frontend coalescing, and follower read offload;
# merges into BENCH_perf.json.
read-bench:
	$(PY) -m repro.bench --read

# Re-run the tracked scenarios and fail when any speedup ratio falls
# more than 25% below the committed BENCH_perf.json baseline.
bench-compare:
	$(PY) scripts/bench_compare.py

# Full benchmark/experiment suite (also merges per-test wall-clock
# timings into BENCH_perf.json).
bench-suite:
	$(PY) -m pytest benchmarks -q

# Drive a traced workload through the CLI and assert every observability
# surface (slow-op log, repro stats, Prometheus exposition) parses.
trace-smoke:
	$(PY) scripts/trace_smoke.py

# The serving benchmark's generator and oracle self-test (no server,
# about a second).
perfbench-selftest:
	python3 perfbench/selftest.py

# One front-door serving benchmark run (see perfbench/README.md) at
# the benchmark's fixed 30 s phase; the last line of output is the
# run's JSON result.
perfbench:
	python3 perfbench/run.py --workload $(WORKLOAD) --seed $(SEED) --seconds 30 --trace $(TRACE)

# Alternating base/change pairs of the serving benchmark: BASE is
# exported under .perfbench_run/, both sides run this checkout's
# perfbench/, and the summary gives each side's median and quartiles,
# the pairs the change won, and compare.py's bound verdict, e.g.
# make perf-pairs BASE=HEAD~1 WORKLOAD=read_hot SEED=3 PAIRS=10
perf-pairs:
	@test -n "$(BASE)" || { echo "usage: make perf-pairs BASE=<rev> [WORKLOAD=...] [SEED=...] [PAIRS=...]"; exit 2; }
	python3 scripts/perf_pairs.py --base $(BASE) --workload $(WORKLOAD) --seed $(SEED) --pairs $(PAIRS) --trace $(TRACE)

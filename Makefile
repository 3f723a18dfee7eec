# Developer entry points.  `pythonpath = ["src"]` in pyproject.toml makes a
# bare `python -m pytest` work too; PYTHONPATH is still exported here so the
# targets behave identically under pytest configurations that predate it.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-props test-backends test-migration test-checkpoints test-obs bench-smoke bench-core bench soak trace perf-smoke perf example clean

## Narrows the benchmark's execution-backend sweep, e.g.:
##   make bench BACKEND=process
##   make bench-smoke BACKEND=serial,thread
BACKEND ?=

## Tier-1: the full unit/integration suite (fails fast, quiet).
test:
	$(PYTHON) -m pytest -x -q

## The property-based suites alone (hypothesis; cluster conservation, the
## differential tests that keep a slow formulation as the reference —
## test_definition1_checker.py for the audit, test_account_book.py for
## running balances ≡ the Figure 4 fold, test_event_queue.py for the
## simulator's heap ≡ a list with min — etc.).
test-props:
	$(PYTHON) -m pytest tests/properties -q

## The cross-backend equivalence harness, the pinned fingerprints (toy runs on
## serial, thread and process and under two PYTHONHASHSEEDs; the benchmark's
## four cluster and two Figure 4 workloads at full size) and the backend
## determinism sweep.
test-backends:
	$(PYTHON) -m pytest tests/cluster/test_backend_equivalence.py tests/cluster/test_pinned_fingerprints.py tests/properties/test_backend_determinism.py -q

## The migration equivalence suite alone: placement invariance across
## {static, manual plan, threshold policy} x {serial, thread, process},
## plus the arbitrary-barrier ShardSnapshot round trips migration rests on.
test-migration:
	$(PYTHON) -m pytest tests/cluster/test_migration.py tests/cluster/test_shard_snapshot.py -q

## The incremental-checkpoint suite alone: delta codec units, checkpoint/
## restore round trips, delta-stream folding on every backend, fingerprint
## invariance across cadences (compaction and checkpointed migration
## included), the replay-log/retirement bounded-growth regressions.
test-checkpoints:
	$(PYTHON) -m pytest tests/cluster/test_checkpoints.py -q

## A fast sanity pass over the cluster benchmark (shrunken grid and load).
bench-smoke:
	REPRO_BENCH_SMOKE=1 REPRO_BENCH_BACKEND=$(BACKEND) $(PYTHON) -m pytest benchmarks/bench_cluster_scaling.py -q

## The per-core engine microbenchmarks (verification cache) in smoke mode:
## measures the rewritten hot-path layer against its replaced implementation
## and records the >=5x speedup gate — explicitly passed/failed/skipped, never
## silent — under core_rows.
bench-core:
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_core.py -q

## The full benchmark suite (slow; regenerates BENCH_cluster.json).
bench:
	REPRO_BENCH_BACKEND=$(BACKEND) $(PYTHON) -m pytest benchmarks -q

## Settlement-lifecycle soak smoke: a long-horizon small-shard run asserting
## bounded resident settlement records (compaction) and the fixed-vs-adaptive
## epoch-policy trade.  The full-horizon version runs under `make bench`.
soak:
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_settlement_soak.py -q

## The observability suite alone: registry/tracer/profiling units plus the
## telemetry-invariance harness (fingerprints identical with telemetry off,
## metrics-only and full tracing, on every backend, migrated runs included).
test-obs:
	$(PYTHON) -m pytest tests/obs -q

## Export a Chrome trace_event trace of one cluster run (TRACE_cluster.json)
## and validate it against the schema — as a JSON array (chrome://tracing /
## Perfetto) and line-by-line (one event object per line).
trace:
	REPRO_BENCH_SMOKE=$(SMOKE) $(PYTHON) -m pytest benchmarks/bench_trace.py -q
	$(PYTHON) -c "from repro.obs import validate_trace_file; name = 'TRACE_cluster$(if $(SMOKE),_smoke,).json'; print(validate_trace_file(name), 'trace events validated in', name)"

## The repository benchmark's own smoke test (BENCHMARK.json's harness at toy
## size, ~20 s).  perf/ is outside tier-1 `testpaths`; this is what notices a
## src/ change that breaks the public surface the benchmark drives.
perf-smoke:
	$(PYTHON) -m pytest perf -q

## The repository benchmark itself: every workload, every end-to-end metric.
perf:
	python3 perf/run.py

## The cluster quickstart example.
example:
	$(PYTHON) examples/cluster_quickstart.py

clean:
	rm -rf .pytest_cache .benchmarks
	find . -type d -name __pycache__ -prune -exec rm -rf {} +

# Developer entry points.  `pythonpath = ["src"]` in pyproject.toml makes a
# bare `python -m pytest` work too; PYTHONPATH is still exported here so the
# targets behave identically under pytest configurations that predate it.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-props test-audit test-backends test-settlement test-obs soak perf-smoke perf example clean

## Tier-1: the full unit/integration suite (fails fast, quiet).
test:
	$(PYTHON) -m pytest -x -q

## The property-based suites alone (hypothesis; cluster conservation, the
## differential tests that keep a slow formulation as the reference —
## test_definition1_checker.py for the audit on random observation sets and
## test_definition1_on_runs.py for it on a cross-shard cluster run and a
## Byzantine Figure 4 run, test_account_book.py for running balances ≡ the
## Figure 4 fold (through snapshot round trips), test_event_queue.py for the
## simulator's heap ≡ a list with min, compared on the live (time, sequence)
## pairs — etc.).
test-props:
	$(PYTHON) -m pytest tests/properties -q

## The audit's suites alone: the spec checkers' unit tests (the agreement
## check's own tests among them: red on a lossy wrapper, refused mid-run),
## the differential test against the quadratic reference on random
## observation sets, and the same reference on real runs plus the audit's two
## guards (no TransferId hashed; settlement provisions folded once per
## audit), and the cluster supply audit red on each identity alone and on a
## forged mint; then the agreement tests on the runs other suites make (the §5
## claims, the message formulas, cluster scaling, one run per settlement
## behaviour) — the suites a change to spec/byzantine_spec.py must keep
## green.  CI runs it a second time as
## `make test-audit PYTHON="python -X dev -W error"`.
test-audit:
	$(PYTHON) -m pytest tests/spec tests/properties/test_definition1_checker.py tests/properties/test_definition1_on_runs.py tests/cluster/test_supply_audit.py -q
	$(PYTHON) -m pytest tests/paper tests/mp/test_message_formulas.py tests/cluster/test_cluster_scaling.py tests/cluster/test_settlement_byzantine.py -k agreement -q

## The cross-backend equivalence harness (the hotspot grid on three
## barrier-grid widths and the pool's fixed shard i -> worker i % w
## assignment among it), the ShardSnapshot round trips the pool's final
## capture rests on, the pinned fingerprints (toy runs on
## serial and process and under two PYTHONHASHSEEDs; the benchmark's four
## cluster and two Figure 4 workloads at full size), the streamed
## fingerprint's differential test against the one-shot JSON digest (toy
## runs on both backends, empty streams, streams longer than one chunk,
## non-ASCII account names), the backend
## determinism sweep, the hand-fed broadcast layers, the Figure 4 message
## formulas, the engine and network suites (tests/network: the pinned message
## path among them, a lossless exchange and a lossless 4-process Bracha
## fan-out, since links are reliable and have no lossy case) and the event
## queue's differential test; and the arrivals every backend is fed: the
## open-loop stream's pinned digest over the steering grid (shard counts,
## cross-shard fractions, hotspot, skew) with stable_hash's pinned values,
## and pre-partitioning's differential test against routing one payment at a
## time.  The message-path four, the arrivals and the pinned fingerprints are
## the suites a change to the message path must keep green.  CI runs it a second time as
## `make test-backends PYTHON="python -X dev -W error"`.
test-backends:
	$(PYTHON) -m pytest tests/cluster/test_backend_equivalence.py tests/cluster/test_shard_snapshot.py tests/cluster/test_pinned_fingerprints.py tests/cluster/test_fingerprint_stream.py tests/properties/test_backend_determinism.py tests/broadcast/test_broadcast_layers.py tests/mp/test_message_formulas.py tests/network tests/properties/test_event_queue.py tests/workloads/test_cluster_driver.py::TestArrivalsArePinned tests/properties/test_partition_routing.py -q

## The settlement suites alone: the quorum-stream exactness suite over both
## legs, the lifecycle and adversarial suites, the per-credit signature
## formulas (test_settlement_formulas.py), the soak, the settlement property
## tests, the signature scheme's suite (settlement's trust boundary: certify,
## verify_certificate, and the encoding and verdict each payload and
## signature carries), the behaviours the adversarial suite
## installs (tests/byzantine, the delay refusal among them) and the pinned
## fingerprints — the suites a settlement change must keep green.  CI runs
## it a second time as `make test-settlement PYTHON="python -X dev -W error"`
## (development mode, every warning an error; ~20 s, 328 tests on a 2-core
## host), so it must stay clean under that too.
test-settlement:
	$(PYTHON) -m pytest tests/cluster/test_settlement*.py tests/properties/test_cluster_settlement.py tests/crypto tests/byzantine tests/cluster/test_pinned_fingerprints.py -q

## The settlement-lifecycle soak alone (part of tier-1): a long-horizon run
## asserting bounded resident settlement records, resident certificates
## (queued for delivery or buffered in an inbox; none at quiescence) and live
## signatures (each carries its verdict), and the
## same soak on the two-worker pool, asserting every checkpoint samples what
## the serial soak's does.  CI runs it a second time under
## `PYTHON="python -X dev -W error"`.
soak:
	$(PYTHON) -m pytest tests/cluster/test_settlement_soak.py -q

## The observability suite alone: registry/tracer units plus the
## telemetry-invariance harness (fingerprints identical with telemetry off,
## metrics-only and full tracing, on every backend) and the phase breakdown,
## whose advance and exchange phases tile the scheduler's barrier loop.  CI runs it a second time under
## `PYTHON="python -X dev -W error"`.
test-obs:
	$(PYTHON) -m pytest tests/obs -q

## The repository benchmark's own smoke test (BENCHMARK.json's harness at toy
## size, ~20 s).  perf/ is outside tier-1 `testpaths`; this is what notices a
## src/ change that breaks the public surface the benchmark drives.
perf-smoke:
	$(PYTHON) -m pytest perf -q

## The repository benchmark itself: every workload, every end-to-end metric.
perf:
	$(PYTHON) perf/run.py

## Every example script, in turn (~9 s); the first failure stops the target.
EXAMPLES := quickstart cluster_quickstart double_spend_attack shared_account_escrow throughput_comparison

example:
	for name in $(EXAMPLES); do $(PYTHON) examples/$$name.py || exit 1; done

clean:
	rm -rf .pytest_cache
	find . -type d -name __pycache__ -prune -exec rm -rf {} +

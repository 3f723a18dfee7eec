"""Unit tests for the canonical ClusterResult serialisation.

``ClusterResult.fingerprint`` is the backbone of the cross-backend
equivalence harness and the determinism regressions: it must be a *stable*
canonical form (same run, same bytes — across processes and interpreter
hash-randomisation), *complete* enough that any behavioural divergence
changes it, and *honest* — refusing to fingerprint a result that was never
captured, rather than comparing empty shells equal.
"""

import hashlib
import json

import pytest

from repro.cluster.backends import BACKEND_NAMES
from repro.cluster.result import ClusterResult
from repro.cluster.system import ClusterSystem
from repro.common.errors import ConfigurationError
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload

# Each backend by name, plus "one-worker": the process pool shrunk to a
# single worker that hosts both shards.
DEPLOYMENTS = BACKEND_NAMES + ("one-worker",)


def _run(fast_network, seed=5, **kwargs):
    system = ClusterSystem(
        shard_count=2,
        replicas_per_shard=4,
        initial_balance=500,
        network_config=fast_network,
        seed=seed,
        **kwargs,
    )
    workload = cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=40,
            aggregate_rate=1_500.0,
            duration=0.015,
            cross_shard_fraction=0.5,
            router=system.router,
            seed=seed,
        )
    )
    system.schedule_submissions(workload)
    result = system.run()
    system.close()
    return result


class TestFingerprint:
    def test_same_seed_same_fingerprint(self, fast_network):
        assert _run(fast_network).fingerprint() == _run(fast_network).fingerprint()

    def test_different_seed_different_fingerprint(self, fast_network):
        assert _run(fast_network, seed=5).fingerprint() != _run(
            fast_network, seed=6
        ).fingerprint()

    def test_fingerprint_is_sha256_of_canonical_json(self, fast_network):
        """The hash covers the canonical payload *minus* the placement and
        volatile sections: the migration stream records where shards were
        computed, the telemetry section records how the run felt, and the
        fingerprint's contract is exactly that neither ever changes results
        (a migrated or traced run hashes equal to the static, untraced
        run)."""
        result = _run(fast_network)
        excluded = result.PLACEMENT_SECTIONS + result.VOLATILE_SECTIONS
        hashed = {
            key: value
            for key, value in result.fingerprint_payload().items()
            if key not in excluded
        }
        canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        assert result.fingerprint() == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        # The canonical form must actually be JSON-round-trippable (no sets,
        # no dataclasses, no non-string keys sneaking in) — the *full*
        # payload included, migration stream and all.
        full = json.dumps(result.fingerprint_payload(), sort_keys=True)
        assert json.loads(full) == json.loads(
            json.dumps(result.fingerprint_payload(), sort_keys=True)
        )

    def test_fingerprint_ignores_the_migration_stream(self, fast_network):
        """Placement metadata may never move the hash — that is the
        placement-invariance contract stated as a unit test."""
        result = _run(fast_network)
        before = result.fingerprint()
        assert result.migration_stream == []
        result.migration_stream = [(3, 0.015, 1, 0, 1)]
        assert result.fingerprint() == before
        assert result.fingerprint_payload()["migrations"] == [[3, 0.015, 1, 0, 1]]

    def test_payload_carries_every_advertised_section(self, fast_network):
        payload = _run(fast_network).fingerprint_payload()
        for section in (
            "balances",
            "committed",
            "settlement",
            "migrations",
            "audit",
            "duration",
            "events_processed",
            "messages_sent",
        ):
            assert section in payload
        assert payload["settlement"], "grid config must exercise settlement"
        assert payload["audit"]["conserved"] is True
        # Balances cover every replica of every shard, keyed canonically.
        assert set(payload["balances"]) == {"0", "1"}
        assert set(payload["balances"]["0"]) == {"0", "1", "2", "3"}
        assert len(payload["per_shard_events"]) == 2

    @pytest.mark.parametrize("backend", DEPLOYMENTS)
    def test_every_backend_captures_the_same_schema(self, fast_network, backend):
        """One capture schema whatever the backend: the same sections as the
        default run, per-shard event counters always filled in."""
        default = _run(fast_network).fingerprint_payload()
        max_workers = 2
        if backend == "one-worker":
            backend, max_workers = "process", 1
        captured = _run(
            fast_network, backend=backend, max_workers=max_workers
        ).fingerprint_payload()
        assert set(captured) == set(default)
        assert len(captured["per_shard_events"]) == 2
        assert all(count > 0 for count in captured["per_shard_events"])
        assert sum(captured["per_shard_events"]) == captured["events_processed"]

    def test_single_balance_change_changes_the_fingerprint(self, fast_network):
        result = _run(fast_network)
        before = result.fingerprint()
        account, amount = next(iter(result.balances["0"]["0"].items()))
        result.balances["0"]["0"][account] = amount + 1
        assert result.fingerprint() != before

    def test_settlement_stream_reordering_changes_the_fingerprint(self, fast_network):
        result = _run(fast_network)
        assert len(result.settlement_stream) >= 2
        before = result.fingerprint()
        result.settlement_stream.reverse()
        assert result.fingerprint() != before

    def test_uncaptured_result_refuses_to_fingerprint(self):
        with pytest.raises(ConfigurationError):
            ClusterResult().fingerprint()
        with pytest.raises(ConfigurationError):
            ClusterResult().fingerprint_payload()

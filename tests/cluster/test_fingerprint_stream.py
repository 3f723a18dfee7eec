"""The streamed fingerprint is the one-shot JSON digest, byte for byte.

``ClusterResult.fingerprint`` feeds SHA-256 one payload section at a time
and each stream ``FINGERPRINT_CHUNK`` entries at a time, so the run's JSON
is never built whole.  Every pinned fingerprint rests on it being exactly
``sha256(json.dumps(comparable_payload(), sort_keys=True,
separators=(",", ":")))``; this suite compares the two on real runs of both
backends, on empty streams, on streams longer than one chunk (and on every
chunk size around a real run's stream lengths) and on non-ASCII text.
"""

import hashlib
import json

import pytest

from repro.cluster import result as result_module
from repro.cluster.result import FINGERPRINT_CHUNK, ClusterResult
from repro.cluster.system import ClusterSystem
from repro.network.node import NetworkConfig
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload


def one_shot(result: ClusterResult) -> str:
    """The fingerprint as it was first defined: one ``json.dumps`` of the payload."""
    canonical = json.dumps(result.comparable_payload(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _toy_run(network, backend):
    system = ClusterSystem(
        shard_count=2,
        replicas_per_shard=4,
        initial_balance=500,
        network_config=network,
        backend=backend,
        max_workers=2,
        seed=11,
    )
    try:
        system.schedule_submissions(
            cluster_open_loop_workload(
                ClusterWorkloadConfig(
                    user_count=40,
                    aggregate_rate=1_500.0,
                    duration=0.015,
                    cross_shard_fraction=0.5,
                    router=system.router,
                    seed=11,
                )
            )
        )
        return system.run()
    finally:
        system.close()


def _captured(**overrides) -> ClusterResult:
    """A hand-made captured result: every section present, streams empty."""
    fields = dict(
        duration=0.25,
        events_processed=7,
        balances={"0": {"0": {"0": 5}}},
        committed_stream=[],
        settlement_stream=[],
        retirement_stream=[],
        audit={"conserved": True},
        per_shard_events=[7],
        retired_records=0,
        resident_settlement_records=0,
    )
    fields.update(overrides)
    return ClusterResult(**fields)


@pytest.fixture(scope="module", params=["serial", "process"])
def toy_result(request):
    network = NetworkConfig(
        latency_base=0.0002,
        latency_mean=0.0003,
        processing_time=0.000002,
        signature_verification_time=0.00002,
        seed=42,
    )
    return _toy_run(network, request.param)


class TestStreamedEqualsOneShot:
    def test_toy_runs(self, toy_result):
        assert toy_result.committed_stream and toy_result.settlement_stream
        assert toy_result.fingerprint() == one_shot(toy_result)

    def test_toy_runs_at_every_small_chunk(self, toy_result, monkeypatch):
        """Chunk sizes that split each stream unevenly, evenly, and not at all."""
        digest = one_shot(toy_result)
        longest = len(toy_result.committed_stream)
        for chunk in (1, 2, 3, 7, longest - 1, longest, longest + 1):
            monkeypatch.setattr(result_module, "FINGERPRINT_CHUNK", chunk)
            assert toy_result.fingerprint() == digest, chunk

    def test_empty_streams(self):
        result = _captured()
        assert result.fingerprint() == one_shot(result)
        # Missing settlement and retirement streams hash as empty lists.
        absent = _captured(settlement_stream=None, retirement_stream=None)
        assert absent.fingerprint() == result.fingerprint() == one_shot(absent)

    def test_a_stream_longer_than_one_chunk(self):
        entries = [
            (index % 3, index, 1, str(index), f"x1:{index}", index % 11, index / 7.0)
            for index in range(2 * FINGERPRINT_CHUNK + 5)
        ]
        result = _captured(
            committed_stream=entries,
            settlement_stream=[entry[:6] for entry in entries[:FINGERPRINT_CHUNK]],
            retirement_stream=[entry[:4] for entry in entries[: FINGERPRINT_CHUNK + 1]],
        )
        assert result.fingerprint() == one_shot(result)

    def test_non_ascii_account_names(self):
        result = _captured(
            balances={"0": {"0": {"é": 3, "ü'\"": 2, "木": 1, "\U0001f4b0": 4}}},
            committed_stream=[(0, 0, 1, "é", "x1:木", 5, 0.001)],
            settlement_stream=[(0, 1, 0, 1, "\U0001f4b0", 5)],
            audit={"note": "naïve"},
        )
        assert result.fingerprint() == one_shot(result)

    def test_telemetry_stays_out(self):
        result = _captured(telemetry={"wall": 1.5})
        assert result.fingerprint() == _captured().fingerprint() == one_shot(result)

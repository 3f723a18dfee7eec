"""The Definition 1 checker on real runs, against the brute-force reference.

``test_definition1_checker.py`` draws its observation sets from small
strategies: at most a dozen transfers from issuers 0-3.  Real runs reach
shapes those strategies never draw: settlement mints from ``settle:{s}:{p}``
sources under negative virtual issuers, declared dependencies on them, long
per-issuer chains, and a Byzantine issuer's equivocation.  Here the checker
must give the reference's report on two toy runs: a cluster run where every
payment crosses shards, and a Figure 4 run at N = 7 with one double-spender
and one silent replica.

Two guards ride along.  C3 indexes transfers by their ``(issuer, sequence)``
tuple, so auditing a run must not hash a single ``TransferId`` (a count, not
a timing).  And ``ClusterSystem.check_definition1`` folds the settlement
provisions once per audit: every shard's checker must still start from its
own initial balances plus ``settlement.provisions_for(shard)``.
"""

from __future__ import annotations

import pytest

from repro.byzantine.faults import FaultKind, FaultModel
from repro.cluster.system import ClusterSystem
from repro.common.types import TransferId
from repro.mp.consensusless_transfer import account_of
from repro.mp.system import ConsensuslessSystem
from repro.network.node import NetworkConfig
from repro.spec.byzantine_spec import ByzantineAssetTransferChecker
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload
from repro.workloads.generators import WorkloadConfig, closed_loop_workload

from test_definition1_checker import reference_violations


@pytest.fixture(scope="module")
def settled_cluster():
    """A settle-all-shaped toy run: 3 shards, batch 8, every payment cross-shard."""
    network = NetworkConfig(
        latency_base=0.0002,
        latency_mean=0.0003,
        processing_time=0.000002,
        signature_verification_time=0.00002,
        seed=42,
    )
    system = ClusterSystem(
        shard_count=3, replicas_per_shard=4, batch_size=8, network_config=network, seed=11
    )
    system.schedule_submissions(
        cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=400,
                aggregate_rate=3_000.0,
                duration=0.03,
                zipf_skew=1.0,
                cross_shard_fraction=1.0,
                router=system.router,
                seed=5,
            )
        )
    )
    system.run()
    yield system
    system.close()


def _cluster_audit_inputs(system):
    """Each shard's checker inputs, as ``check_definition1`` composes them."""
    return [
        (
            {**shard.initial_balances(), **system.settlement.provisions_for(shard.index)},
            shard.observations(),
        )
        for shard in system.shards
    ]


def _figure4_run():
    """Figure 4 at N = 7, f = 2: replica 6 double-spends, replica 5 is silent."""
    count, attacker = 7, 6
    fault_model = FaultModel(
        total_processes=count,
        faults={attacker: FaultKind.DOUBLE_SPEND, 5: FaultKind.SILENT},
    )
    submissions = [
        s
        for s in closed_loop_workload(count, WorkloadConfig(transfers_per_process=4, seed=7))
        if fault_model.is_correct(s.issuer) and s.destination != account_of(attacker)
    ]
    system = ConsensuslessSystem(process_count=count, fault_model=fault_model, seed=7)
    system.schedule_submissions(submissions)
    system.trigger_attacks(at_time=0.0005)
    system.run()
    return system


def _assert_matches_reference(initial, observations):
    report = ByzantineAssetTransferChecker(initial).check(observations)
    expected = reference_violations(initial, observations)
    assert report.violations == expected
    assert report.ok == (not expected)
    assert report.checked_transfers == sum(len(obs.validated) for obs in observations)


class TestCheckerMatchesReferenceOnRuns:
    def test_a_cross_shard_cluster_run(self, settled_cluster):
        inputs = _cluster_audit_inputs(settled_cluster)
        observations = [obs for _, shard_observations in inputs for obs in shard_observations]
        validated = [t for obs in observations for t in obs.validated]
        # The shapes the random strategies never draw are all here.
        assert any(t.source.startswith("settle:") for t in validated)
        assert any(t.issuer < 0 for t in validated)
        assert any(declared for obs in observations for declared in obs.dependencies)
        for initial, observations in inputs:
            _assert_matches_reference(initial, observations)

    def test_a_figure4_run_with_a_double_spender_and_a_silent_replica(self):
        system = _figure4_run()
        observations = system.observations()
        assert {obs.process for obs in observations} == {0, 1, 2, 3, 4}
        # The attacker equivocated; its split broadcast reached no quorum, so
        # no correct replica validated either conflicting transfer.
        assert all(system.nodes[6].conflicting_transfers)
        assert not any(t.issuer == 6 for obs in observations for t in obs.validated)
        _assert_matches_reference(system.initial_balances(), observations)


class TestTheAuditHashesNoTransferId:
    def test_auditing_a_cluster_run_never_hashes_a_transfer_id(
        self, settled_cluster, monkeypatch
    ):
        inputs = _cluster_audit_inputs(settled_cluster)
        calls = []
        original = TransferId.__hash__

        def counting_hash(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(TransferId, "__hash__", counting_hash)
        hash(TransferId(0, 1))
        assert len(calls) == 1  # the counter sees hashes made by the interpreter
        calls.clear()
        for initial, observations in inputs:
            assert ByzantineAssetTransferChecker(initial).check(observations).ok
        assert calls == []


class TestProvisionsFoldedOncePerAudit:
    def test_every_shard_starts_from_its_per_shard_provisions(
        self, settled_cluster, monkeypatch
    ):
        seen = []

        class RecordingChecker(ByzantineAssetTransferChecker):
            def __init__(self, initial_balances):
                seen.append(dict(initial_balances))
                super().__init__(initial_balances)

        monkeypatch.setattr(
            "repro.cluster.system.ByzantineAssetTransferChecker", RecordingChecker
        )
        assert settled_cluster.check_definition1().ok
        fabric = settled_cluster.settlement
        expected = [
            {**shard.initial_balances(), **fabric.provisions_for(shard.index)}
            for shard in settled_cluster.shards
        ]
        assert seen == expected
        # Every shard received minted credits, so every fold is non-trivial.
        assert all(fabric.provisions_for(shard.index) for shard in settled_cluster.shards)

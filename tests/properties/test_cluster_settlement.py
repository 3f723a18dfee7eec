"""Property-based conservation tests for the settled cluster.

Across ~50 random seed × shard-count × batch-size × cross-shard-fraction
configurations, a full cluster run (workload generation, routing, per-shard
Figure 4, settlement relay, mint) must end with:

* the two-ledger accounting identity intact — ``local + in-flight`` equals
  the initial supply,
* everything settled at quiescence — no credit left in flight, so the local
  balances alone carry the whole supply, and
* every shard passing its Definition 1 check (with settlement provisions)
  plus the cluster-level conservation audit.

The configurations are deliberately tiny (tens of payments, up to three
shards) so the property suite stays inside the tier-1 budget; the benchmark
exercises the paper-scale versions of the same assertions.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.system import ClusterSystem
from repro.network.node import NetworkConfig
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload

FAST_NETWORK = NetworkConfig(
    latency_base=0.0002,
    latency_mean=0.0003,
    processing_time=0.000002,
    signature_verification_time=0.00002,
    seed=42,
)

REPLICAS = 4
INITIAL_BALANCE = 100


def _run_cluster(seed, shards, batch, fraction):
    system = ClusterSystem(
        shard_count=shards,
        replicas_per_shard=REPLICAS,
        batch_size=batch,
        initial_balance=INITIAL_BALANCE,
        network_config=FAST_NETWORK,
        seed=seed % 997,
    )
    workload = cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=60,
            aggregate_rate=2_000.0,
            duration=0.02,
            zipf_skew=1.0,
            cross_shard_fraction=fraction,
            router=system.router if fraction is not None else None,
            seed=seed,
        )
    )
    scheduled = system.schedule_submissions(workload)
    system.run()
    return system, scheduled


class TestClusterConservationProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        shards=st.sampled_from([1, 2, 3]),
        batch=st.sampled_from([1, 4]),
        fraction=st.sampled_from([None, 0.0, 0.5, 1.0]),
    )
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_supply_is_conserved_and_every_shard_passes_definition_1(
        self, seed, shards, batch, fraction
    ):
        system, scheduled = _run_cluster(seed, shards, batch, fraction)
        initial_supply = shards * REPLICAS * INITIAL_BALANCE

        audit = system.supply_audit()
        # The identity: local + in-flight (unretired outbound minus unretired
        # mints) == initial.
        assert audit.total == initial_supply
        assert system.total_supply() == initial_supply
        # Quiescence: everything certified, delivered, minted — exactly once
        # — then acknowledged and retired, leaving the ledgers compact.
        assert audit.fully_settled
        assert audit.local == initial_supply
        assert audit.ledger_matches_relay
        assert audit.retirement_backed
        assert audit.fully_retired
        assert audit.outbound == 0
        assert system.resident_settlement_records() == 0
        # Every cross-shard payment carries at least min_amount = 1 coin, so
        # any cross-shard traffic must have minted something by quiescence —
        # and the full lifecycle must have retired its outbound records.
        if system.cross_shard_submissions:
            assert audit.minted > 0
            assert system.retired_records() > 0

        report = system.check_definition1()
        assert report.ok, report.violations
        assert len(report.shard_reports) == shards

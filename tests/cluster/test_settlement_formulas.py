"""The settlement lifecycle's signature formulas: what one credit costs.

Single-owner asset transfer has consensus number 1, so a cross-shard credit
needs a quorum-certified transfer, not consensus, and the work it must do is
signatures.  On a fault-free run that reaches quiescence, with ``N`` replicas
per shard and quorum ``q = 2⌊(N−1)/3⌋+1``, each of the ``C`` credits settled
costs exactly

* ``2N`` signatures: one voucher per source replica, one ack per
  destination replica;
* ``2N + (N+3)q`` verifications, of which the ``(N+3)q`` reuse the verdict
  the signature carries (``sig.verify_cached``): each
  voucher and each ack is checked fresh on arrival (``2N``); the voucher
  leg's ``certify`` (``q``), the ``N`` destination inboxes' certificate
  checks (``Nq``), the ack leg's ``certify`` (``q``) and the compaction
  gate's check (``q``) re-check signatures already verified;
* ``2`` certifies and ``N+1`` certificate checks;
* ``N`` vouchers and ``N`` acks dispatched, one retired claim, and
  ``3N + 1`` settlement messages: the vouchers, the certificate's ``N``
  deliveries, the acks and one retirement-certificate delivery.

The counts are summed over every shard's ``metrics_snapshot()``, so they
hold whichever backend ran the shards; a change that drops or adds a check
on the settlement path moves them.  ``C`` is counted independently, as the
committed transfers that credit another shard.
"""

from __future__ import annotations

import pytest

from repro.cluster.routing import parse_external_account
from repro.cluster.system import ClusterSystem
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload

SIGNATURE_COUNTERS = ("sign", "verify", "verify_cached", "certify", "verify_certificate")


def _settle(fast_network, replicas, batch, cross, backend):
    system = ClusterSystem(
        shard_count=2,
        replicas_per_shard=replicas,
        # Bracha signs nothing, so every ``sig.*`` count is settlement's.
        initial_balance=500,
        batch_size=batch,
        network_config=fast_network,
        backend=backend,
        max_workers=2 if backend == "process" else None,
        telemetry="metrics",
        seed=11,
    )
    try:
        system.schedule_submissions(
            cluster_open_loop_workload(
                ClusterWorkloadConfig(
                    user_count=40,
                    aggregate_rate=1_500.0,
                    duration=0.012,
                    cross_shard_fraction=cross,
                    router=system.router,
                    seed=11,
                )
            )
        )
        result = system.run()
        credits = sum(
            1
            for shard in result.shard_results
            for record in shard.committed
            if parse_external_account(record.transfer.destination) is not None
        )
        totals = dict.fromkeys(SIGNATURE_COUNTERS, 0)
        for shard in system.shards:
            counters = shard.metrics_snapshot()["counters"]
            for name in SIGNATURE_COUNTERS:
                totals[name] += counters.get(f"sig.{name}", 0)
        fabric = system.settlement
        lifecycle = dict(
            vouchers=fabric.vouchers_dispatched,
            acks=fabric.acks_dispatched,
            messages=fabric.settlement_messages(),
            retired=fabric.retired_claims(),
            in_flight=system.scheduler.in_flight,
        )
        return credits, system.shards[0].quorum_size, totals, lifecycle
    finally:
        system.close()


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("cross", [0.25, 1.0])
@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("replicas", [4, 5, 7, 10])
def test_each_settled_credit_costs_exactly_the_formula(
    fast_network, replicas, batch, cross, backend
):
    credits, quorum, totals, lifecycle = _settle(fast_network, replicas, batch, cross, backend)
    n, c = replicas, credits
    assert quorum == 2 * ((n - 1) // 3) + 1
    assert c > 0
    assert totals == {
        "sign": 2 * n * c,
        "verify": (2 * n + (n + 3) * quorum) * c,
        # On the pool a certificate crosses a pipe to its shard and a copied
        # signature starts unchecked: the first inbox check and the gate's
        # run fresh there.
        "verify_cached": (n + (3 if backend == "serial" else 1)) * quorum * c,
        "certify": 2 * c,
        "verify_certificate": (n + 1) * c,
    }
    assert lifecycle == dict(
        vouchers=n * c, acks=n * c, messages=(3 * n + 1) * c, retired=c, in_flight=0
    )

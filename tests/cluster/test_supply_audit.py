"""The cluster supply audit goes red: each identity alone, then on a real run.

:class:`repro.cluster.result.SupplyAudit` states three identities —
``conserved``, ``ledger_matches_relay`` and ``retirement_backed`` — and every
other suite sees them hold.  The table below breaks each one alone from a
quiescent, conserved baseline and pins the message it reports; the run at
the end forges a mint at one shard's replica 0 after a settled cross-shard
payment and requires the cluster audit to name both the mint mismatch and
the shard's C2 balance violation.
"""

import dataclasses

import pytest

from repro.cluster.result import ClusterCheckReport, SupplyAudit
from repro.cluster.settlement import settlement_account, settlement_issuer
from repro.cluster.system import ClusterSystem
from repro.common.types import Transfer
from repro.workloads.cluster_driver import ClusterSubmission

# Quiescent and conserved: local carries the whole supply, and the 60 units
# that crossed shards were minted and fully retired.
BASELINE = SupplyAudit(
    initial_supply=4000, local=4000, outbound=0, minted=60, relay_delivered=60, retired=60
)

BROKEN = [
    pytest.param(
        {"local": 3999},
        "conserved",
        "conservation violated: local 3999 + in-flight 0 = 3999 != initial supply 4000",
        id="conserved",
    ),
    pytest.param(
        {"relay_delivered": 61},
        "ledger_matches_relay",
        "mint mismatch: ledgers minted 60 but relays delivered certificates for 61",
        id="ledger_matches_relay",
    ),
    pytest.param(
        # Ten more retired than minted, netted by ten less local money, so
        # the supply identity itself still holds.
        {"retired": 70, "local": 3990},
        "retirement_backed",
        "retirement overran settlement: retired 70 exceeds minted 60",
        id="retirement_backed",
    ),
    pytest.param(
        # A negative retirement, netted by 61 more local money: its own
        # message, not an overrun of the mints.
        {"retired": -1, "local": 4061},
        "retirement_backed",
        "negative retirement: retired -1 is below zero",
        id="retirement_backed_negative",
    ),
]
IDENTITIES = ("conserved", "ledger_matches_relay", "retirement_backed")


def test_the_baseline_is_green():
    assert BASELINE.ok and BASELINE.violations == []
    assert BASELINE.fully_settled and BASELINE.fully_retired


@pytest.mark.parametrize("changes, broken, message", BROKEN)
def test_each_identity_fails_alone(changes, broken, message):
    audit = dataclasses.replace(BASELINE, **changes)
    assert {name: getattr(audit, name) for name in IDENTITIES} == {
        name: name != broken for name in IDENTITIES
    }
    assert audit.ok is False
    assert audit.violations == [message]
    report = ClusterCheckReport(conservation=audit)
    assert report.ok is False
    assert report.violations == [f"cluster: {message}"]


def test_a_forged_mint_on_a_quiescent_run_fails_both_audits(fast_network):
    with ClusterSystem(
        shard_count=2, replicas_per_shard=4, network_config=fast_network, seed=3
    ) as system:
        payer = next(u for u in range(100_000) if system.router.shard_of(u) == 0)
        payee = next(u for u in range(100_000) if system.router.shard_of(u) == 1)
        system.schedule_submissions(
            [ClusterSubmission(time=0.001, source_user=payer, destination_user=payee, amount=9)]
        )
        system.run()
        assert system.scheduler.quiescent
        clean = system.check_definition1()
        assert clean.ok, clean.violations
        assert clean.conservation.minted == clean.conservation.relay_delivered == 9

        # No certificate stands behind this credit.
        forged = Transfer(
            source=settlement_account(0, 0),
            destination=system.router.local_account_of(payee),
            amount=500,
            issuer=settlement_issuer(0, 0),
            sequence=99,
        )
        system.shards[1].nodes[0].mint_certified_credit(forged)
        report = system.check_definition1()

    assert not report.ok
    audit = report.conservation
    assert (audit.conserved, audit.ledger_matches_relay, audit.retirement_backed) == (
        True,
        False,
        True,
    )
    assert "cluster: mint mismatch: ledgers minted 509 but relays delivered certificates for 9" in (
        report.violations
    )
    assert report.shard_reports[0].ok
    assert any(
        violation.startswith("shard 1: ") and "C2" in violation for violation in report.violations
    )

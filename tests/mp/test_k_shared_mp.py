"""Tests for the k-shared message-passing protocol (Section 6, experiment E7)."""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.bft.sequencer import OwnerQuorumSequencer
from repro.common.types import OwnershipMap, Transfer
from repro.mp.k_shared import KSharedSystem
from repro.mp.messages import SequencedAnnouncement, TransferAnnouncement
from repro.network.node import NetworkConfig
from repro.workloads.generators import WorkloadConfig, k_shared_workload


def build(fast_network, silent=()):
    ownership = OwnershipMap(
        {"joint": (0, 1, 2), "3": (3,), "4": (4,), "5": (5,)}
    )
    balances = {"joint": 100, "3": 50, "4": 50, "5": 50}
    return KSharedSystem(
        ownership=ownership,
        process_count=6,
        initial_balances=balances,
        network_config=fast_network,
        silent_processes=silent,
        seed=5,
    )


@dataclass(frozen=True)
class KSharedOutcome:
    """E7: the k-shared system with one account's owners partially silenced."""

    committed_on_healthy_accounts: int
    committed_on_compromised_account: int
    healthy_account_liveness: bool
    views_agree: bool


def k_shared_experiment(
    owners_per_shared_account: int = 3,
    singleton_accounts: int = 5,
    transfers_per_owner: int = 2,
    compromise: bool = True,
    seed: int = 11,
    network: Optional[NetworkConfig] = None,
) -> KSharedOutcome:
    """E7: shared accounts keep working; a compromised one only blocks itself.

    The system has one shared account (owned by ``owners_per_shared_account``
    processes) plus ``singleton_accounts`` single-owner accounts.  When
    ``compromise`` is true, enough of the shared account's owners are silenced
    to stall its sequencing service; the experiment then checks that the
    other accounts retain liveness and that all correct views agree.
    """
    shared_owners = tuple(range(owners_per_shared_account))
    accounts = {"shared": shared_owners}
    process_count = owners_per_shared_account + singleton_accounts
    for index in range(singleton_accounts):
        owner = owners_per_shared_account + index
        accounts[str(owner)] = (owner,)
    ownership = OwnershipMap(accounts)
    initial_balances = {account: 100 for account in ownership.accounts}

    # Silence a majority of the shared account's owners (including its
    # sequencing leader) to model a compromised account.
    silent = tuple(shared_owners[: max(1, (2 * owners_per_shared_account) // 3)]) if compromise else ()

    system = KSharedSystem(
        ownership=ownership,
        process_count=process_count,
        initial_balances=initial_balances,
        network_config=network or NetworkConfig(),
        silent_processes=silent,
        seed=seed,
    )

    submissions = k_shared_workload(
        ownership, WorkloadConfig(transfers_per_process=transfers_per_owner, seed=seed)
    )
    healthy_expected = 0
    for submission in submissions:
        if submission.issuer in silent:
            continue
        system.submit(
            submission.time, submission.issuer, submission.source, submission.destination, submission.amount
        )
        if submission.source != "shared":
            healthy_expected += 1
    # Bound the run: a compromised shared account never quiesces (its owners
    # keep retrying), so run to a fixed horizon instead.
    result = system.run(until=3.0)

    committed_shared = sum(
        1 for record in result.committed if record.transfer.source == "shared"
    )
    committed_healthy = result.committed_count - committed_shared
    views = [node.all_known_balances() for node in system.correct_nodes()]
    views_agree = all(view == views[0] for view in views[1:]) if views else True
    return KSharedOutcome(
        committed_on_healthy_accounts=committed_healthy,
        committed_on_compromised_account=committed_shared,
        healthy_account_liveness=committed_healthy >= healthy_expected,
        views_agree=views_agree,
    )


class TestSharedAccountOperation:
    def test_multiple_owners_can_spend_from_the_shared_account(self, fast_network):
        system = build(fast_network)
        system.submit(0.001, 0, "joint", "3", 10)
        system.submit(0.001, 1, "joint", "4", 20)
        system.submit(0.002, 2, "joint", "5", 30)
        result = system.run(until=2.0)
        assert result.committed_count == 3
        balances = system.balances_at(4)
        assert balances["joint"] == 40
        assert balances["3"] == 60 and balances["4"] == 70 and balances["5"] == 80

    def test_correct_views_agree(self, fast_network):
        system = build(fast_network)
        system.submit(0.001, 0, "joint", "3", 5)
        system.submit(0.001, 3, "3", "joint", 7)
        system.run(until=2.0)
        views = [node.all_known_balances() for node in system.correct_nodes()]
        assert all(view == views[0] for view in views)

    def test_shared_account_never_overdrawn_under_contention(self, fast_network):
        system = build(fast_network)
        # Three owners together try to spend 150 from a balance of 100.
        system.submit(0.001, 0, "joint", "3", 50)
        system.submit(0.001, 1, "joint", "4", 50)
        system.submit(0.001, 2, "joint", "5", 50)
        result = system.run(until=2.0)
        for node in system.correct_nodes():
            assert node.balance_of("joint") >= 0
        assert result.committed_count <= 3

    def test_non_owner_submission_fails(self, fast_network):
        system = build(fast_network)
        system.submit(0.001, 3, "joint", "3", 5)
        result = system.run(until=1.0)
        assert result.committed_count == 0
        assert len(result.rejected) == 1

    def test_singleton_accounts_work_through_the_same_path(self, fast_network):
        system = build(fast_network)
        system.submit(0.001, 3, "3", "4", 5)
        result = system.run(until=1.0)
        assert result.committed_count == 1
        assert system.balances_at(5)["4"] == 55


class TestCompromisedAccount:
    def test_compromised_shared_account_does_not_affect_others(self, fast_network):
        # Silence two of the three owners (including the sequencing leader):
        # the shared account stalls but singleton accounts keep working.
        system = build(fast_network, silent=(0, 1))
        system.submit(0.001, 2, "joint", "3", 10)   # needs a quorum of owners -> stalls
        system.submit(0.002, 3, "3", "4", 5)
        system.submit(0.003, 4, "4", "5", 5)
        result = system.run(until=1.0)
        committed_sources = [record.transfer.source for record in result.committed]
        assert "3" in committed_sources and "4" in committed_sources
        assert "joint" not in committed_sources

    def test_k_shared_experiment_outcome(self, fast_network):
        outcome = k_shared_experiment(
            owners_per_shared_account=3,
            singleton_accounts=3,
            transfers_per_owner=1,
            compromise=True,
            network=fast_network,
        )
        assert outcome.healthy_account_liveness
        assert outcome.committed_on_compromised_account == 0
        assert outcome.views_agree

    def test_uncompromised_shared_account_has_liveness(self, fast_network):
        outcome = k_shared_experiment(
            owners_per_shared_account=2,
            singleton_accounts=3,
            transfers_per_owner=1,
            compromise=False,
            network=fast_network,
        )
        assert outcome.committed_on_compromised_account > 0
        assert outcome.views_agree


def _slot_one_certificate(scheme, signers, transfer):
    """A certificate for ``transfer`` as slot 1 of ``joint``, endorsed by
    ``signers`` — sequencers that take themselves for the account's owners."""
    owners_of = {"joint": frozenset(signers)}
    sequencers = {signer: OwnerQuorumSequencer(signer, owners_of, scheme) for signer in signers}
    proposer = sequencers[signers[0]]
    request = proposer.make_request("joint", transfer)
    certified = [
        proposer.handle_endorsement(sequencers[signer].handle_request(request))
        for signer in signers
    ]
    return next(sequenced for sequenced in certified if sequenced is not None).certificate


TRANSFER = Transfer("joint", "3", 10, issuer=0, sequence=0)


def _announcement(certificate):
    return SequencedAnnouncement(
        announcement=TransferAnnouncement(transfer=TRANSFER),
        account="joint",
        account_sequence=1,
        certificate=certificate,
    )


class TestSequencedCertificateGuard:
    """``_valid`` takes a certified slot only on a genuine owner quorum over
    this very transfer: anything less leaves the announcement unvalidated
    however well-formed the rest of it is."""

    @pytest.mark.parametrize(
        "certify",
        [
            pytest.param(lambda scheme: None, id="no-certificate"),
            pytest.param(
                lambda scheme: _slot_one_certificate(scheme, (3, 4, 5), TRANSFER),
                id="signed-by-non-owners",
            ),
            pytest.param(
                lambda scheme: _slot_one_certificate(scheme, (1,), TRANSFER),
                id="below-the-owner-quorum",
            ),
            pytest.param(
                lambda scheme: _slot_one_certificate(
                    scheme, (0, 1, 2), Transfer("joint", "4", 10, issuer=0, sequence=0)
                ),
                id="certifies-another-transfer",
            ),
        ],
    )
    def test_rejects_an_announcement_without_a_genuine_certificate(self, fast_network, certify):
        system = build(fast_network)
        assert not system.correct_node(3)._valid(_announcement(certify(system.scheme)))

    def test_accepts_the_owner_quorum_certificate(self, fast_network):
        system = build(fast_network)
        owners = _slot_one_certificate(system.scheme, (0, 1, 2), TRANSFER)
        assert system.correct_node(3)._valid(_announcement(owners))

"""Unit tests for balance computations, the reference ledger and the account book."""

import sys

import pytest

from repro.cluster import ClusterSystem
from repro.common.errors import ConfigurationError
from repro.common.types import OwnershipMap, Transfer, TransferStatus
from repro.core.accounts import (
    AccountBook,
    Ledger,
    balance_from_decided_snapshot,
    balance_from_snapshot,
    balance_from_transfers,
)
from repro.mp.system import ClientSubmission, ConsensuslessSystem
from repro.workloads.cluster_driver import ClusterSubmission


class TestBalanceFromTransfers:
    def test_incoming_and_outgoing(self):
        transfers = [Transfer("a", "b", 5), Transfer("b", "a", 2)]
        assert balance_from_transfers("a", 10, transfers) == 7
        assert balance_from_transfers("b", 0, transfers) == 3

    def test_unrelated_transfers_ignored(self):
        assert balance_from_transfers("z", 4, [Transfer("a", "b", 5)]) == 4

    def test_self_transfer_is_neutral(self):
        assert balance_from_transfers("a", 4, [Transfer("a", "a", 3)]) == 4


class TestBalanceFromSnapshot:
    def test_sums_across_segments(self):
        snapshot = (
            {Transfer("a", "b", 5, issuer=0, sequence=0)},
            None,
            {Transfer("c", "a", 2, issuer=2, sequence=0)},
        )
        assert balance_from_snapshot("a", 10, snapshot) == 7

    def test_duplicate_transfer_across_segments_counts_once(self):
        transfer = Transfer("a", "b", 5, issuer=0, sequence=0)
        snapshot = ({transfer}, {transfer})
        assert balance_from_snapshot("a", 10, snapshot) == 5
        assert balance_from_snapshot("b", 0, snapshot) == 5


class TestBalanceFromDecidedSnapshot:
    def test_only_successful_transfers_count(self):
        ok = (Transfer("a", "b", 5, issuer=0, sequence=0), TransferStatus.SUCCESS)
        failed = (Transfer("a", "b", 7, issuer=0, sequence=1), TransferStatus.FAILURE)
        assert balance_from_decided_snapshot("a", 10, ({ok, failed},)) == 5

    def test_duplicates_across_segments_count_once(self):
        decision = (Transfer("a", "b", 5, issuer=0, sequence=0), TransferStatus.SUCCESS)
        assert balance_from_decided_snapshot("a", 10, ({decision}, {decision})) == 5


class TestAccountBook:
    def test_record_indexes_both_accounts_and_moves_both_balances(self):
        book = AccountBook({"a": 10})
        transfer = Transfer("a", "b", 4, issuer=0, sequence=1)
        assert transfer not in book
        assert book.record(transfer)
        assert transfer in book
        assert book.hist == {"a": {transfer}, "b": {transfer}}
        assert (book.balance("a"), book.balance("b"), book.balance("z")) == (6, 4, 0)

    def test_a_recorded_transfer_counts_once(self):
        book = AccountBook({"a": 10})
        transfer = Transfer("a", "b", 4, issuer=0, sequence=1)
        book.record(transfer)
        assert not book.record(transfer)
        assert (book.balance("a"), book.balance("b")) == (6, 4)

    def test_also_under_indexes_without_moving_a_balance(self):
        book = AccountBook({"a": 10, "c": 3})
        transfer = Transfer("a", "b", 4, issuer=0, sequence=1)
        book.record(transfer)
        assert not book.record(transfer, also_under="c")
        assert book.hist["c"] == {transfer}
        assert (book.balance("a"), book.balance("b"), book.balance("c")) == (6, 4, 3)

    def test_self_transfer_is_neutral(self):
        book = AccountBook({"a": 10})
        book.record(Transfer("a", "a", 3, issuer=0, sequence=1))
        assert book.balance("a") == 10

    def test_discarding_a_settled_record_removes_only_the_credit(self):
        book = AccountBook({"a": 10})
        transfer = Transfer("a", "x1:b", 4, issuer=0, sequence=1)
        book.record(transfer)
        book.discard(transfer, keep_credit=False)
        assert transfer not in book and not book.hist
        assert (book.balance("a"), book.balance("x1:b")) == (6, 0)
        assert book.offsets == {"a": -4}

    def test_discarding_a_consumed_record_moves_no_balance(self):
        book = AccountBook({"a": 10, "b": 0})
        transfer = Transfer("a", "b", 4, issuer=0, sequence=1)
        book.record(transfer)
        book.discard(transfer, keep_credit=True)
        assert not book.hist
        assert (book.balance("a"), book.balance("b")) == (6, 4)
        assert book.offsets == {"a": -4, "b": 4}

    def test_rebuild_rederives_the_balances_from_hist_and_offsets(self):
        book = AccountBook({"a": 10, "b": 0})
        kept = Transfer("a", "b", 4, issuer=0, sequence=1)
        dropped = Transfer("a", "x1:b", 5, issuer=0, sequence=2)
        noted = Transfer("b", "c", 1, issuer=1, sequence=1)
        for transfer in (kept, dropped, noted):
            book.record(transfer)
        book.record(noted, also_under="a")
        book.discard(dropped, keep_credit=False)
        twin = AccountBook({"a": 10, "b": 0})
        twin.rebuild(book.hist, book.offsets)
        assert twin.hist == book.hist and twin.offsets == book.offsets
        for account in ("a", "b", "c", "x1:b"):
            assert twin.balance(account) == book.balance(account)
        # The twin owns its sets: recording on it leaves the original alone.
        twin.record(Transfer("b", "a", 2, issuer=1, sequence=2))
        assert book.balance("a") == 1 and twin.balance("a") == 3

    def test_hist_cannot_be_written_around_the_book(self):
        book = AccountBook({"a": 10})
        with pytest.raises((TypeError, AttributeError)):
            book.hist["a"] = set()
        with pytest.raises(AttributeError):
            book.hist.setdefault("a", set())


class TestTheFoldIsOffTheRunPath:
    """``balance_from_transfers`` is the specification, not the implementation:
    a run validates, admits batches, reads and audits without ever walking a
    history.  A stopwatch would say so only on a quiet host; making the fold
    raise says so anywhere."""

    @pytest.fixture(autouse=True)
    def _fold_raises(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("the balance fold ran on the run path")

        # Every binding, so a module that from-imports the fold is covered too.
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and hasattr(module, "balance_from_transfers"):
                monkeypatch.setattr(module, "balance_from_transfers", refuse)

    def test_plain_figure_4_system(self, fast_network):
        system = ConsensuslessSystem(
            process_count=5, initial_balance=10, network_config=fast_network, seed=4
        )
        system.schedule_submissions(
            [
                ClientSubmission(
                    time=0.001 * i, issuer=i % 5, destination=str((i + 1) % 5), amount=4
                )
                for i in range(20)
            ]
        )
        result = system.run()
        assert result.committed_count == 20
        assert system.correct_node(0).read() == 10

    def test_batched_cluster(self, fast_network):
        system = ClusterSystem(
            shard_count=2,
            replicas_per_shard=4,
            batch_size=4,
            initial_balance=100,
            network_config=fast_network,
            backend="serial",
            seed=3,
        )
        try:
            system.schedule_submissions(
                [
                    ClusterSubmission(
                        time=0.0002 * i,
                        source_user=i % 11,
                        destination_user=(i + 3) % 11,
                        amount=1 + i % 4,
                    )
                    for i in range(60)
                ]
            )
            result = system.run()
            assert result.committed_count == 60
            assert result.audit["conserved"]
        finally:
            system.close()


class TestLedger:
    def _ledger(self):
        ownership = OwnershipMap.single_owner({"a": 0, "b": 1})
        return Ledger.with_initial_balance(ownership, 10)

    def test_apply_moves_funds(self):
        ledger = self._ledger()
        assert ledger.apply(Transfer("a", "b", 4, issuer=0))
        assert ledger.balance("a") == 6
        assert ledger.balance("b") == 14

    def test_non_owner_rejected(self):
        ledger = self._ledger()
        assert not ledger.apply(Transfer("a", "b", 4, issuer=1))
        assert ledger.balance("a") == 10

    def test_overdraft_rejected(self):
        ledger = self._ledger()
        assert not ledger.apply(Transfer("a", "b", 11, issuer=0))

    def test_total_supply_invariant(self):
        ledger = self._ledger()
        ledger.apply(Transfer("a", "b", 4, issuer=0))
        ledger.apply(Transfer("b", "a", 9, issuer=1))
        assert ledger.total_supply() == 20

    def test_copy_is_independent(self):
        ledger = self._ledger()
        clone = ledger.copy()
        ledger.apply(Transfer("a", "b", 4, issuer=0))
        assert clone.balance("a") == 10

    def test_override_for_unknown_account_rejected(self):
        ownership = OwnershipMap.single_owner({"a": 0})
        with pytest.raises(ConfigurationError):
            Ledger.with_initial_balance(ownership, 10, overrides={"zzz": 1})

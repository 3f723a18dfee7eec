"""Unit tests for the Definition 1 checker (Section 5.1)."""

import time

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import Transfer
from repro.spec.byzantine_spec import (
    ByzantineAssetTransferChecker,
    ClientOperation,
    ProcessObservation,
)


def observation(process, transfers, operations=(), dependencies=None):
    """``transfers`` in local validation order; no declared dependencies
    unless ``dependencies`` gives the column."""
    return ProcessObservation(
        process=process,
        validated=list(transfers),
        dependencies=[()] * len(transfers) if dependencies is None else list(dependencies),
        operations=list(operations),
    )


def successful(process, transfer, invoked_at, responded_at):
    return ClientOperation(process=process, kind="transfer", invoked_at=invoked_at,
                           responded_at=responded_at, response=True, transfer=transfer)


@pytest.fixture
def checker():
    return ByzantineAssetTransferChecker({"0": 10, "1": 10, "2": 10})


class TestAgreement:
    def test_consistent_views_pass(self, checker):
        t = Transfer("0", "1", 5, issuer=0, sequence=1)
        report = checker.check([observation(0, [t]), observation(1, [t])])
        assert report.ok
        assert report.checked_transfers == 2

    def test_conflicting_transfers_for_same_slot_detected(self, checker):
        t1 = Transfer("0", "1", 5, issuer=0, sequence=1)
        t2 = Transfer("0", "2", 5, issuer=0, sequence=1)
        report = checker.check([observation(1, [t1]), observation(2, [t2])])
        assert not report.ok
        assert any("C1" in violation for violation in report.violations)


class TestBalanceSafety:
    def test_overdraft_in_local_order_detected(self, checker):
        t = Transfer("0", "1", 50, issuer=0, sequence=1)
        report = checker.check([observation(1, [t])])
        assert not report.ok
        assert any("C2" in violation for violation in report.violations)

    def test_spending_received_funds_is_fine(self, checker):
        first = Transfer("0", "1", 10, issuer=0, sequence=1)
        second = Transfer("1", "2", 15, issuer=1, sequence=1)
        report = checker.check([observation(1, [first, second])])
        assert report.ok

    def test_the_local_order_is_the_column_order(self, checker):
        # The same two transfers, spent before they were received: an entry's
        # position is its index, so only the column's order decides.
        first = Transfer("0", "1", 10, issuer=0, sequence=1)
        second = Transfer("1", "2", 15, issuer=1, sequence=1)
        report = checker.check([observation(1, [second, first])])
        assert [v for v in report.violations if v.startswith("C2")] == [
            f"C2 balance violation at process 1: applying {second} drives account '1' to -5"
        ]


class TestColumns:
    def test_columns_of_unequal_length_are_refused(self):
        t = Transfer("0", "1", 5, issuer=0, sequence=1)
        with pytest.raises(ConfigurationError, match="1 validated transfers but 0"):
            ProcessObservation(process=0, validated=[t])
        with pytest.raises(ConfigurationError, match="0 validated transfers but 1"):
            ProcessObservation(process=0, dependencies=[()])


class TestGlobalOrder:
    def test_dependency_cycle_detected(self, checker):
        # Two transfers each declaring the other as a dependency.
        t1 = Transfer("0", "1", 1, issuer=0, sequence=1)
        t2 = Transfer("1", "0", 1, issuer=1, sequence=1)
        obs = observation(0, [t1, t2], dependencies=[(t2.transfer_id,), (t1.transfer_id,)])
        report = checker.check([obs])
        assert not report.ok
        assert any("C3" in violation for violation in report.violations)

    def test_real_time_order_respected(self, checker):
        t1 = Transfer("0", "1", 5, issuer=0, sequence=1)
        t2 = Transfer("1", "2", 5, issuer=1, sequence=1)
        operations = [
            ClientOperation(process=0, kind="transfer", invoked_at=0.0, responded_at=1.0,
                            response=True, transfer=t1),
            ClientOperation(process=1, kind="transfer", invoked_at=2.0, responded_at=3.0,
                            response=True, transfer=t2),
        ]
        report = checker.check(
            [observation(0, [t1, t2], [operations[0]]), observation(1, [t1, t2], [operations[1]])]
        )
        assert report.ok

    def test_dependency_against_real_time_order_detected(self, checker):
        # t1 declares t2 as a dependency, yet t1 responded before t2 was invoked.
        t1 = Transfer("0", "1", 5, issuer=0, sequence=1)
        t2 = Transfer("1", "2", 5, issuer=1, sequence=1)
        obs = observation(
            0,
            [t2, t1],
            [successful(0, t1, 0.0, 1.0), successful(1, t2, 2.0, 3.0)],
            dependencies=[(), (t2.transfer_id,)],
        )
        report = checker.check([obs])
        assert report.violations == [
            "C3 order violation: the dependency + real-time relation over validated "
            "transfers contains a cycle; no sequential witness exists"
        ]

    def test_touching_operations_are_concurrent(self, checker):
        # responded_at == invoked_at is not real-time precedence: the declared
        # dependency of t1 on t2 stays satisfiable.
        t1 = Transfer("0", "1", 5, issuer=0, sequence=1)
        t2 = Transfer("1", "2", 5, issuer=1, sequence=1)
        obs = observation(
            0,
            [t2, t1],
            [successful(0, t1, 0.0, 1.0), successful(1, t2, 1.0, 2.0)],
            dependencies=[(), (t2.transfer_id,)],
        )
        assert checker.check([obs]).ok

    def test_successful_but_unvalidated_transfer_is_a_completeness_violation(self, checker):
        # t1 succeeded at its issuer but is in nobody's validated log.  It is not
        # a node of the order relation, so it must not precede t2 there (a
        # predecessor that can never be emitted reads as a cycle).
        t1 = Transfer("0", "1", 5, issuer=0, sequence=1)
        t2 = Transfer("1", "2", 5, issuer=1, sequence=1)
        t3 = Transfer("2", "0", 50, issuer=2, sequence=1)
        report = checker.check(
            [
                observation(0, [t2, t3], [successful(0, t1, 0.0, 1.0)]),
                observation(1, [t2, t3], [successful(1, t2, 2.0, 3.0)]),
            ]
        )
        assert [v for v in report.violations if v.startswith("C3")] == [
            f"C3 completeness violation: process 0 completed {t1} successfully but no "
            "correct process validated it",
            # The rest of the witness is still replayed.
            f"C3 legality violation: sequential witness drives account '2' negative at {t3}",
        ]

    def test_operation_never_waits_for_its_own_completion(self, checker):
        # A span reported backwards (responded before invoked) must not block itself.
        t1 = Transfer("0", "1", 5, issuer=0, sequence=1)
        report = checker.check([observation(0, [t1], [successful(0, t1, 2.0, 1.0)])])
        assert report.ok

    def test_out_of_funds_witness_message(self, checker):
        # Locally t_out follows t_in and is covered; without a declared
        # dependency the witness takes (issuer, sequence) order and is not.
        t_in = Transfer("1", "0", 5, issuer=1, sequence=1)
        t_out = Transfer("0", "2", 15, issuer=0, sequence=1)
        report = checker.check([observation(0, [t_in, t_out])])
        assert report.violations == [
            "C3 legality violation: sequential witness drives account '0' negative at "
            "0->2:15 (tx[0:1])"
        ]


class TestScaling:
    """The audit is near-linear; a quadratic regression blows these budgets."""

    BUDGET_S = 5.0

    def test_sequential_transfers(self):
        # Strictly sequential operations maximise real-time precedence:
        # 5 * 10^7 ordered pairs, which the checker must never enumerate.
        count = 10_000
        transfers = [Transfer("0", "1", 1, issuer=0, sequence=i + 1) for i in range(count)]
        operations = [successful(0, t, float(i), i + 0.5) for i, t in enumerate(transfers)]
        started = time.perf_counter()
        report = ByzantineAssetTransferChecker({"0": count}).check(
            [observation(0, transfers, operations)]
        )
        assert time.perf_counter() - started < self.BUDGET_S
        assert report.ok and report.checked_transfers == count

    def test_reads_over_a_long_log(self):
        # Each read returns its account's final balance, which only the longest
        # prefixes justify: the worst case for replaying prefixes per read.
        count, accounts = 2_000, 50
        transfers = [
            Transfer("bank", str(i % accounts), 1, issuer=0, sequence=i + 1) for i in range(count)
        ]
        reads = [
            ClientOperation(process=0, kind="read", invoked_at=0.0, responded_at=1.0,
                            response=count // accounts, account=str(i % accounts))
            for i in range(200)
        ]
        started = time.perf_counter()
        report = ByzantineAssetTransferChecker({"bank": count}).check(
            [observation(0, transfers, reads)]
        )
        assert time.perf_counter() - started < self.BUDGET_S
        assert report.ok


class TestLocalViews:
    def test_justified_read_accepted(self, checker):
        t = Transfer("0", "1", 4, issuer=0, sequence=1)
        read = ClientOperation(process=1, kind="read", invoked_at=0.0, responded_at=0.1,
                               response=14, account="1")
        report = checker.check([observation(1, [t], [read])])
        assert report.ok

    def test_stale_but_consistent_read_accepted(self, checker):
        t = Transfer("0", "1", 4, issuer=0, sequence=1)
        read = ClientOperation(process=1, kind="read", invoked_at=0.0, responded_at=0.1,
                               response=10, account="1")
        report = checker.check([observation(1, [t], [read])])
        assert report.ok

    def test_unjustifiable_read_detected(self, checker):
        read = ClientOperation(process=1, kind="read", invoked_at=0.0, responded_at=0.1,
                               response=999, account="1")
        report = checker.check([observation(1, [], [read])])
        assert not report.ok
        assert any("C4" in violation for violation in report.violations)

    def test_unjustified_failed_transfer_detected(self, checker):
        t = Transfer("1", "2", 3, issuer=1, sequence=1)
        failed = ClientOperation(process=1, kind="transfer", invoked_at=0.0, responded_at=0.1,
                                 response=False, transfer=t)
        report = checker.check([observation(1, [], [failed])])
        assert not report.ok

    def test_justified_failed_transfer_accepted(self, checker):
        t = Transfer("1", "2", 30, issuer=1, sequence=1)
        failed = ClientOperation(process=1, kind="transfer", invoked_at=0.0, responded_at=0.1,
                                 response=False, transfer=t)
        report = checker.check([observation(1, [], [failed])])
        assert report.ok

    def test_report_is_falsy_when_violations_exist(self, checker):
        t1 = Transfer("0", "1", 5, issuer=0, sequence=1)
        t2 = Transfer("0", "2", 5, issuer=0, sequence=1)
        report = checker.check([observation(1, [t1]), observation(2, [t2])])
        assert not bool(report)

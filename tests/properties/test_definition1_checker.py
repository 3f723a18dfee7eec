"""Differential property test for the Definition 1 checker.

:class:`~repro.spec.byzantine_spec.ByzantineAssetTransferChecker` enforces the
real-time order of successful transfers with a sweep over the completion order
and answers local-view queries from one running-balance pass.  This file keeps
the obvious quadratic formulation — one real-time edge per ordered pair, Kahn's
algorithm over the materialised edge sets, a fresh prefix replay per query — as
a brute-force reference, and requires the checker to produce the *same report*
(``ok``, ``checked_transfers`` and the exact ``violations`` list, text and
order) on random observation sets: overlapping and sequential operations,
timestamp ties, replicas whose ``position`` orders differ, double-spends (C1),
overdrafts (C2), dependency cycles and real-time inversions (C3), successful
operations nobody validated (C3 completeness), stale or unjustifiable reads and
failed transfers (C4).  Balances are kept tight so that a witness order that
differs anywhere shows up as a different C3 legality message.
"""

from typing import Dict, List, Optional, Sequence, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro.common.types import Transfer, TransferId
from repro.spec.byzantine_spec import (
    ByzantineAssetTransferChecker,
    ClientOperation,
    ProcessObservation,
    ValidatedTransfer,
)

ACCOUNTS = ["0", "1", "2", "3"]


# -- the brute-force reference ----------------------------------------------------------------


def reference_violations(
    initial: Dict[str, int], observations: Sequence[ProcessObservation]
) -> List[str]:
    return (
        _reference_agreement(observations)
        + _reference_balance_safety(initial, observations)
        + _reference_global_order(initial, observations)
        + _reference_local_views(initial, observations)
    )


def _reference_agreement(observations) -> List[str]:
    violations = []
    slots: Dict[Tuple[str, int], Transfer] = {}
    for obs in observations:
        for validated in obs.validated:
            transfer = validated.transfer
            known = slots.setdefault((transfer.source, transfer.sequence), transfer)
            if known != transfer:
                violations.append(
                    "C1 agreement violation (double spend): account "
                    f"{transfer.source!r} sequence {transfer.sequence} was validated as "
                    f"{known} by one correct process and as {transfer} by process "
                    f"{obs.process}"
                )
    return violations


def _replay(balances: Dict[str, int], transfer: Transfer) -> int:
    balances[transfer.source] = balances.get(transfer.source, 0) - transfer.amount
    balances[transfer.destination] = balances.get(transfer.destination, 0) + transfer.amount
    return balances[transfer.source]


def _reference_balance_safety(initial, observations) -> List[str]:
    violations = []
    for obs in observations:
        balances = dict(initial)
        for validated in sorted(obs.validated, key=lambda v: v.position):
            balance = _replay(balances, validated.transfer)
            if balance < 0:
                violations.append(
                    f"C2 balance violation at process {obs.process}: applying "
                    f"{validated.transfer} drives account {validated.transfer.source!r} "
                    f"to {balance}"
                )
    return violations


def _reference_global_order(initial, observations) -> List[str]:
    violations = []
    transfers: Dict[TransferId, Transfer] = {}
    dependencies: Dict[TransferId, Set[TransferId]] = {}
    for obs in observations:
        for validated in obs.validated:
            tid = validated.transfer.transfer_id
            transfers.setdefault(tid, validated.transfer)
            dependencies.setdefault(tid, set()).update(validated.dependencies)

    edges: Dict[TransferId, Set[TransferId]] = {tid: set() for tid in transfers}
    by_source: Dict[str, List[TransferId]] = {}
    for tid, transfer in transfers.items():
        by_source.setdefault(transfer.source, []).append(tid)
    for tids in by_source.values():
        tids.sort(key=lambda t: transfers[t].sequence)
        for earlier, later in zip(tids, tids[1:]):
            edges[later].add(earlier)
    for tid, deps in dependencies.items():
        edges[tid].update(dep for dep in deps if dep in transfers)

    completion_times: Dict[TransferId, float] = {}
    invocation_times: Dict[TransferId, float] = {}
    for obs in observations:
        for op in obs.operations:
            if op.kind != "transfer" or op.transfer is None:
                continue
            if op.response is not True or op.responded_at is None:
                continue
            tid = op.transfer.transfer_id
            if tid not in transfers:
                violations.append(
                    f"C3 completeness violation: process {obs.process} completed "
                    f"{op.transfer} successfully but no correct process validated it"
                )
                continue
            completion_times[tid] = op.responded_at
            invocation_times[tid] = op.invoked_at
    # One edge for every pair of non-overlapping successful operations.
    for earlier, earlier_done in completion_times.items():
        for later, later_started in invocation_times.items():
            if earlier != later and earlier_done < later_started:
                edges[later].add(earlier)

    order = _reference_topological_order(edges)
    if order is None:
        violations.append(
            "C3 order violation: the dependency + real-time relation over validated "
            "transfers contains a cycle; no sequential witness exists"
        )
        return violations
    balances = dict(initial)
    for tid in order:
        if _replay(balances, transfers[tid]) < 0:
            violations.append(
                f"C3 legality violation: sequential witness drives account "
                f"{transfers[tid].source!r} negative at {transfers[tid]}"
            )
    return violations


def _reference_topological_order(
    edges: Dict[TransferId, Set[TransferId]]
) -> Optional[List[TransferId]]:
    remaining = {tid: set(deps) for tid, deps in edges.items()}
    dependents: Dict[TransferId, Set[TransferId]] = {tid: set() for tid in edges}
    for tid, deps in edges.items():
        for dep in deps:
            dependents[dep].add(tid)
    ready = sorted((tid for tid, deps in remaining.items() if not deps), key=_issue_order)
    order: List[TransferId] = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        for dependent in sorted(dependents[current], key=_issue_order):
            remaining[dependent].discard(current)
            if not remaining[dependent]:
                ready.append(dependent)
    return order if len(order) == len(edges) else None


def _issue_order(tid: TransferId) -> Tuple[int, int]:
    return (tid.issuer, tid.sequence)


def _reference_local_views(initial, observations) -> List[str]:
    violations = []
    for obs in observations:
        log = sorted(obs.validated, key=lambda v: v.position)

        def prefix_balances(account: str) -> List[int]:
            return [_balance_after_prefix(initial, account, log, n) for n in range(len(log) + 1)]

        for op in obs.operations:
            if op.kind == "read" and op.responded_at is not None and op.account is not None:
                if not any(balance == op.response for balance in prefix_balances(op.account)):
                    violations.append(
                        f"C4 read violation at process {obs.process}: read of "
                        f"{op.account!r} returned {op.response!r}, which no prefix of "
                        "the local validated history justifies"
                    )
            if op.kind == "transfer" and op.response is False and op.transfer is not None:
                balances = prefix_balances(op.transfer.source)
                if not any(balance < op.transfer.amount for balance in balances):
                    violations.append(
                        f"C4 failed-transfer violation at process {obs.process}: "
                        f"{op.transfer} was rejected although every local prefix had "
                        "sufficient balance"
                    )
    return violations


def _balance_after_prefix(initial, account: str, log, prefix_length: int) -> int:
    balance = initial.get(account, 0)
    for validated in log[:prefix_length]:
        if validated.transfer.source == account:
            balance -= validated.transfer.amount
        if validated.transfer.destination == account:
            balance += validated.transfer.amount
    return balance


# -- random observation sets ------------------------------------------------------------------

# Few issuers and sequence numbers, so that the same (issuer, sequence) slot is
# drawn twice with different contents now and then: a double-spend.
transfers_st = st.builds(
    Transfer,
    source=st.sampled_from(ACCOUNTS),
    destination=st.sampled_from(ACCOUNTS),
    amount=st.integers(0, 8),
    issuer=st.integers(0, 3),
    sequence=st.integers(1, 4),
)
# Timestamps on a coarse grid: ties (responded_at == invoked_at of another
# operation, which is *not* a real-time edge) and zero-length operations are common.
instants_st = st.integers(0, 6).map(float)


@st.composite
def observation_sets(draw):
    pool = draw(st.lists(transfers_st, min_size=0, max_size=9))
    # Declared dependencies point anywhere in the pool (cycles included) and
    # sometimes at a transfer nobody validated.
    known_ids = [t.transfer_id for t in pool] + [TransferId(9, 9)]
    declared = {
        index: tuple(draw(st.lists(st.sampled_from(known_ids), max_size=2)))
        for index in range(len(pool))
    }
    initial = {account: draw(st.integers(0, 10)) for account in ACCOUNTS[:-1]}
    observations = []
    for process in range(draw(st.integers(1, 3))):
        indices = draw(st.lists(st.sampled_from(range(len(pool))), unique=True)) if pool else []
        # List order and ``position`` order are drawn independently.
        positions = draw(st.permutations(range(len(indices))))
        validated = [
            ValidatedTransfer(pool[index], declared[index], position)
            for index, position in zip(indices, positions)
        ]
        operations = []
        for _ in range(draw(st.integers(0, 5))):
            invoked_at = draw(instants_st)
            responded_at = draw(st.one_of(st.none(), st.integers(0, 3).map(invoked_at.__add__)))
            if draw(st.booleans()):
                operations.append(
                    ClientOperation(
                        process=process,
                        kind="read",
                        invoked_at=invoked_at,
                        responded_at=responded_at,
                        response=draw(st.integers(0, 20)),
                        account=draw(st.one_of(st.none(), st.sampled_from(ACCOUNTS))),
                    )
                )
            else:
                # Mostly a pooled transfer (validated by someone, or by nobody:
                # the completeness case), sometimes a fresh one.
                transfer = draw(st.sampled_from(pool)) if pool else draw(transfers_st)
                operations.append(
                    ClientOperation(
                        process=process,
                        kind="transfer",
                        invoked_at=invoked_at,
                        responded_at=responded_at,
                        response=draw(st.sampled_from([True, True, False, None])),
                        transfer=draw(st.one_of(st.none(), st.just(transfer), transfers_st)),
                    )
                )
        observations.append(ProcessObservation(process, validated, operations))
    return initial, observations


def assert_matches_reference(initial, observations):
    report = ByzantineAssetTransferChecker(initial).check(observations)
    expected = reference_violations(initial, observations)
    assert report.violations == expected
    assert report.ok == (not expected)
    assert report.checked_transfers == sum(len(obs.validated) for obs in observations)
    assert report.checked_processes == len(observations)


@settings(max_examples=400, deadline=None)
@given(observation_sets())
def test_checker_matches_quadratic_reference(case):
    assert_matches_reference(*case)


@st.composite
def payment_rounds(draw):
    """Mostly-legal runs: every replica validates every transfer, operations succeed.

    The random sets above are nearly always illegal somewhere; this one keeps
    C1/C2 quiet so that the comparison exercises long witness orders, where the
    release order of real-time-blocked transfers decides the C3 messages.
    """
    count = draw(st.integers(1, 12))
    next_sequence = {account: 0 for account in ACCOUNTS}
    pool, operations = [], []
    clock = 0.0
    for _ in range(count):
        source = draw(st.sampled_from(ACCOUNTS))
        next_sequence[source] += 1
        transfer = Transfer(
            source,
            draw(st.sampled_from(ACCOUNTS)),
            draw(st.integers(0, 6)),
            issuer=int(source),
            sequence=next_sequence[source],
        )
        pool.append(transfer)
        # Sequential when the gap is positive, overlapping or tied when it is not.
        clock = max(0.0, clock + draw(st.integers(-2, 2)))
        operations.append(
            ClientOperation(
                process=int(source),
                kind="transfer",
                invoked_at=clock,
                responded_at=clock + draw(st.integers(0, 3)),
                response=True,
                transfer=transfer,
            )
        )
    initial = {account: draw(st.integers(0, 12)) for account in ACCOUNTS}
    observations = []
    for process in range(len(ACCOUNTS)):
        positions = draw(st.permutations(range(count)))
        observations.append(
            ProcessObservation(
                process,
                [ValidatedTransfer(t, (), position) for t, position in zip(pool, positions)],
                [op for op in operations if op.process == process],
            )
        )
    return initial, observations


@settings(max_examples=200, deadline=None)
@given(payment_rounds())
def test_checker_matches_reference_on_mostly_legal_runs(case):
    assert_matches_reference(*case)

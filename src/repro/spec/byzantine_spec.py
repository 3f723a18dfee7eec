"""Checker for the Byzantine asset-transfer specification (Definition 1, §5.1).

In the message-passing model the paper relaxes linearizability: *successful
transfers* performed by correct processes must form a legal sequential
history that preserves real-time order, while reads and failed transfers may
be "outdated" (sequentially consistent with each process's local view).

An exact check of Definition 1 would require searching over all sequential
witnesses; instead this module performs the set of sound checks that the
paper's own proof of Theorem 3 relies on, each of which catches a concrete
class of violations:

``C1 — per-account agreement``
    No two correct processes validate *different* transfers for the same
    ``(account, sequence-number)`` slot.  A violation is exactly a successful
    double-spend (equivocation that got past validation).

``C2 — local balance safety``
    Replaying each correct process's validated transfers in its local
    validation order never drives any account balance negative.

``C3 — global legality and real-time order``
    The union of transfers validated by correct processes, ordered by the
    dependency relation (per-account sequence order plus declared
    dependencies) and by the real-time order of successful transfers issued
    by correct processes, is acyclic and replays to a legal sequential
    history.  This is the witness ``S`` constructed in the proof of Theorem 3.

``C4 — local views (Definition 1, part 2)``
    Every read and failed transfer of a correct process is justified by that
    process's local validated prefix at the time of the operation.

The checker reports all violations it finds rather than stopping at the first
one, which makes protocol debugging much faster.

Cost, for ``n`` validated transfers over all processes, ``e`` declared
dependencies and ``q`` reads and failed transfers: C1 and C2 are one pass,
O(n).  C3 is O((n + e) log n): real-time precedence between non-overlapping
operations is an interval order, so the transfers that must precede an
operation are a *prefix* of the completion order.  Kahn's algorithm therefore
keeps only the sparse explicit edges and gives each operation one extra
blocker, lifted when that prefix has been emitted; an operation becomes ready
at the same pop, in the same ``(issuer, sequence)``-sorted batch, as it would
with one edge per ordered pair, so the witness — and every C3 message — is the
one the pairwise relation yields.  C4 is O(n + q) per process: one forward
pass records the prefix balances of just the queried accounts.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.common.types import (
    AccountId,
    Amount,
    ProcessId,
    Transfer,
    TransferId,
    rebuilt_by_constructor,
)


@rebuilt_by_constructor
@dataclass(frozen=True)
class ValidatedTransfer:
    """A transfer as validated by one correct process.

    ``dependencies`` are the transfer identities the issuer declared as the
    transfer's causal dependencies (the ``deps``/``h`` set of Figure 4).
    ``position`` is the index of the transfer in the validating process's
    local validation order.
    """

    transfer: Transfer
    dependencies: Tuple[TransferId, ...] = ()
    position: int = 0


@rebuilt_by_constructor
@dataclass(frozen=True)
class ClientOperation:
    """One client-level operation performed by a correct process.

    ``kind`` is ``"transfer"`` or ``"read"``.  ``invoked_at`` and
    ``responded_at`` are simulator timestamps; ``response`` is the value
    returned (``True``/``False`` for transfers, a balance for reads).
    ``transfer`` is set for transfer operations.
    """

    process: ProcessId
    kind: str
    invoked_at: float
    responded_at: Optional[float]
    response: object = None
    transfer: Optional[Transfer] = None
    account: Optional[AccountId] = None


@dataclass
class ProcessObservation:
    """Everything the checker needs to know about one correct process."""

    process: ProcessId
    validated: List[ValidatedTransfer] = field(default_factory=list)
    operations: List[ClientOperation] = field(default_factory=list)


@dataclass
class CheckReport:
    """Result of a Byzantine asset-transfer check."""

    ok: bool
    violations: List[str] = field(default_factory=list)
    checked_transfers: int = 0
    checked_processes: int = 0

    def __bool__(self) -> bool:
        return self.ok


class _Balances(Dict[AccountId, Amount]):
    """Replay balances: holds the touched accounts, reads the rest through to ``base``."""

    def __init__(self, base: Mapping[AccountId, Amount]) -> None:
        super().__init__()
        self._base = base

    def __missing__(self, account: AccountId) -> Amount:
        return self._base.get(account, 0)

    def apply(self, transfer: Transfer) -> Amount:
        """Debit and credit ``transfer``; returns the source's resulting balance."""
        self[transfer.source] -= transfer.amount
        self[transfer.destination] += transfer.amount
        return self[transfer.source]


_issue_order = attrgetter("issuer", "sequence")  # sort key for TransferIds


class ByzantineAssetTransferChecker:
    """Checks executions of the message-passing protocol against Definition 1."""

    def __init__(self, initial_balances: Mapping[AccountId, Amount]) -> None:
        self._initial_balances = dict(initial_balances)

    # -- public API ---------------------------------------------------------------

    def check(self, observations: Sequence[ProcessObservation]) -> CheckReport:
        """Run all checks over the given per-process observations."""
        # Each process's validated log in local validation order, shared by C2 and C4.
        logs = [sorted(obs.validated, key=lambda v: v.position) for obs in observations]
        violations: List[str] = []
        violations.extend(self._check_per_account_agreement(observations))
        violations.extend(self._check_local_balance_safety(observations, logs))
        violations.extend(self._check_global_order(observations))
        violations.extend(self._check_local_views(observations, logs))
        checked = sum(len(obs.validated) for obs in observations)
        return CheckReport(
            ok=not violations,
            violations=violations,
            checked_transfers=checked,
            checked_processes=len(observations),
        )

    # -- C1: per-account agreement ---------------------------------------------------

    def _check_per_account_agreement(
        self, observations: Sequence[ProcessObservation]
    ) -> List[str]:
        violations: List[str] = []
        slots: Dict[Tuple[AccountId, int], Transfer] = {}
        for obs in observations:
            for validated in obs.validated:
                transfer = validated.transfer
                key = (transfer.source, transfer.sequence)
                known = slots.get(key)
                if known is None:
                    slots[key] = transfer
                elif known != transfer:
                    violations.append(
                        "C1 agreement violation (double spend): account "
                        f"{transfer.source!r} sequence {transfer.sequence} was validated as "
                        f"{known} by one correct process and as {transfer} by process "
                        f"{obs.process}"
                    )
        return violations

    # -- C2: local balance safety -----------------------------------------------------

    def _check_local_balance_safety(
        self,
        observations: Sequence[ProcessObservation],
        logs: Sequence[Sequence[ValidatedTransfer]],
    ) -> List[str]:
        violations: List[str] = []
        for obs, log in zip(observations, logs):
            balances = _Balances(self._initial_balances)
            for validated in log:
                transfer = validated.transfer
                balance = balances.apply(transfer)
                if balance < 0:
                    violations.append(
                        f"C2 balance violation at process {obs.process}: applying {transfer} "
                        f"drives account {transfer.source!r} to {balance}"
                    )
        return violations

    # -- C3: global legality and real-time order ----------------------------------------

    def _check_global_order(self, observations: Sequence[ProcessObservation]) -> List[str]:
        violations: List[str] = []

        # Union of validated transfers across correct processes.
        transfers: Dict[TransferId, Transfer] = {}
        dependencies: Dict[TransferId, Set[TransferId]] = {}
        for obs in observations:
            for validated in obs.validated:
                tid = validated.transfer.transfer_id
                transfers.setdefault(tid, validated.transfer)
                dependencies.setdefault(tid, set()).update(validated.dependencies)

        # Dependency edges: per-source sequence order plus declared dependencies.
        edges: Dict[TransferId, Set[TransferId]] = {tid: set() for tid in transfers}
        by_source: Dict[AccountId, List[TransferId]] = {}
        for tid, transfer in transfers.items():
            by_source.setdefault(transfer.source, []).append(tid)
        for source, tids in by_source.items():
            tids.sort(key=lambda t: transfers[t].sequence)
            for earlier, later in zip(tids, tids[1:]):
                edges[later].add(earlier)
        for tid, deps in dependencies.items():
            for dep in deps:
                if dep in transfers:
                    edges[tid].add(dep)

        # Real-time span of each successful transfer of a correct process.
        spans: Dict[TransferId, Tuple[float, float]] = {}
        for obs in observations:
            for op in obs.operations:
                if op.kind != "transfer" or op.transfer is None:
                    continue
                if op.response is not True or op.responded_at is None:
                    continue
                tid = op.transfer.transfer_id
                if tid in transfers:
                    spans[tid] = (op.invoked_at, op.responded_at)
                else:
                    violations.append(
                        f"C3 completeness violation: process {obs.process} completed "
                        f"{op.transfer} successfully but no correct process validated it"
                    )

        order = self._topological_order(edges, spans)
        if order is None:
            violations.append(
                "C3 order violation: the dependency + real-time relation over validated "
                "transfers contains a cycle; no sequential witness exists"
            )
            return violations

        balances = _Balances(self._initial_balances)
        for tid in order:
            transfer = transfers[tid]
            if balances.apply(transfer) < 0:
                violations.append(
                    f"C3 legality violation: sequential witness drives account "
                    f"{transfer.source!r} negative at {transfer}"
                )
        return violations

    @staticmethod
    def _topological_order(
        edges: Dict[TransferId, Set[TransferId]],
        spans: Mapping[TransferId, Tuple[float, float]],
    ) -> Optional[List[TransferId]]:
        """Kahn's algorithm over ``edges`` plus the real-time order of ``spans``.

        ``edges[t]`` are the transfers that must precede ``t`` explicitly;
        ``spans[t]`` is ``(invoked_at, responded_at)``.  ``t`` must also follow
        every other transfer that responded strictly before ``t`` was invoked.
        Those are a prefix of the completion order, so instead of one edge per
        pair ``t`` gets a single extra blocker, lifted once that prefix is out.
        """
        blocked = {tid: len(deps) for tid, deps in edges.items()}
        dependents: Dict[TransferId, List[TransferId]] = {tid: [] for tid in edges}
        for tid, deps in edges.items():
            for dep in deps:
                dependents[dep].append(tid)
        done_order = sorted(spans, key=lambda t: spans[t][1])
        done_times = [spans[tid][1] for tid in done_order]
        done_rank = {tid: rank for rank, tid in enumerate(done_order)}
        # waiting[k]: transfers invoked after exactly the first k completions.
        # A span never waits for its own completion, hence the ``min``.
        waiting: Dict[int, List[TransferId]] = {}
        for tid, span in spans.items():
            needed = bisect_left(done_times, min(span))
            if needed:
                blocked[tid] += 1
                waiting.setdefault(needed, []).append(tid)

        ready = deque(sorted((tid for tid, n in blocked.items() if not n), key=_issue_order))
        order: List[TransferId] = []
        emitted = [False] * len(done_order)
        prefix = 0
        while ready:
            current = ready.popleft()
            order.append(current)
            released = list(dependents[current])
            rank = done_rank.get(current)
            if rank is not None:
                emitted[rank] = True
                while prefix < len(emitted) and emitted[prefix]:
                    prefix += 1
                    released.extend(waiting.get(prefix, ()))
            batch = []
            for dependent in released:
                blocked[dependent] -= 1
                if not blocked[dependent]:
                    batch.append(dependent)
            batch.sort(key=_issue_order)
            ready.extend(batch)
        if len(order) != len(edges):
            return None
        return order

    # -- C4: local views ------------------------------------------------------------------

    def _check_local_views(
        self,
        observations: Sequence[ProcessObservation],
        logs: Sequence[Sequence[ValidatedTransfer]],
    ) -> List[str]:
        violations: List[str] = []
        for obs, log in zip(observations, logs):
            # The operations this process's local view must justify, each
            # with the account whose prefix balances decide it.
            pending: List[Tuple[ClientOperation, AccountId]] = []
            for op in obs.operations:
                if op.kind == "read" and op.responded_at is not None:
                    if op.account is not None:
                        pending.append((op, op.account))
                elif op.kind == "transfer" and op.response is False and op.transfer is not None:
                    pending.append((op, op.transfer.source))
            if not pending:
                continue
            seen = self._prefix_balances({account for _, account in pending}, log)
            lowest = {account: min(balances) for account, balances in seen.items()}
            for op, account in pending:
                if op.kind == "read":
                    # A read may be outdated but must be justified by *some*
                    # prefix of the local validated log (sequential
                    # consistency with the local view).
                    if op.response not in seen[account]:
                        violations.append(
                            f"C4 read violation at process {obs.process}: read of "
                            f"{op.account!r} returned {op.response!r}, which no prefix of "
                            "the local validated history justifies"
                        )
                elif lowest[account] >= op.transfer.amount:
                    violations.append(
                        f"C4 failed-transfer violation at process {obs.process}: "
                        f"{op.transfer} was rejected although every local prefix had "
                        "sufficient balance"
                    )
        return violations

    def _prefix_balances(
        self, accounts: Set[AccountId], log: Sequence[ValidatedTransfer]
    ) -> Dict[AccountId, Set[Amount]]:
        """Every balance each of ``accounts`` takes over the prefixes of ``log``, in one pass."""
        running = {account: self._initial_balances.get(account, 0) for account in accounts}
        seen = {account: {balance} for account, balance in running.items()}
        for validated in log:
            transfer = validated.transfer
            source, destination = transfer.source, transfer.destination
            # Debit before credit, record after both: a self-transfer is one step.
            if source in running:
                running[source] -= transfer.amount
            if destination in running:
                running[destination] += transfer.amount
                seen[destination].add(running[destination])
            if source in running:
                seen[source].add(running[source])
        return seen

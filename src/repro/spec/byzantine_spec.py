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

C1–C4 are safety checks: a run in which correct replicas silently disagree
on *which* transfers happened, or a client waits forever, passes all four.
:func:`check_agreement` is the liveness half, for quiescent runs only:
every correct process validated the same set of transfers (secure
broadcast's Agreement, through Figure 4's validation) and answered every
transfer submission it was given (Validity).  It is separate from the
checker so Definition 1's audit does not pay for it.

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

Each process's history arrives as two columns in its local validation order
(:class:`ProcessObservation`): the transfers, and the dependency ids each
one's announcement declared.  An entry's position is its index, so C2 and C4
replay the transfer column as it stands — nothing is sorted, and nothing is
built per validation — while C1, C3 and :func:`check_agreement` iterate it
directly and C3 zips in the dependency column.

The constant factor is in the keys.  C1 keys its slot table by the
``(source, sequence)`` tuple and C2 and C3 replay on a plain dict keyed by
account.  C3 indexes the union once: each distinct ``(issuer, sequence)``
tuple, read off a transfer or a declared ``TransferId`` by one
``attrgetter``, gets an integer slot in first-seen order, and the edges,
blocker counts, dependents, spans, completion ranks and ``ready`` batches are
lists indexed by slot, a batch sorted by its slots' key tuples.  So no
``TransferId`` is built or hashed: its dataclass ``__hash__`` builds a tuple
on every call, and graph tables keyed by ``TransferId`` objects spent most of
the audit there.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.common.types import (
    AccountId,
    Amount,
    ProcessId,
    Transfer,
    TransferId,
    rebuilt_by_constructor,
)


@rebuilt_by_constructor
@dataclass(frozen=True, slots=True)
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
    """Everything the checker needs to know about one correct process.

    The process's validated history is two columns in its local validation
    order: ``validated[i]`` is the ``i``-th transfer it validated and
    ``dependencies[i]`` the transfer identities that transfer's issuer
    declared as its causal dependencies (the ``deps``/``h`` set of Figure 4;
    ``()`` for a settlement mint).  An entry's position in the local order
    is its index, so no per-entry record is kept.  Columns of unequal length
    are refused (:class:`~repro.common.errors.ConfigurationError`).
    """

    process: ProcessId
    validated: List[Transfer] = field(default_factory=list)
    dependencies: List[Tuple[TransferId, ...]] = field(default_factory=list)
    operations: List[ClientOperation] = field(default_factory=list)
    # Transfer submissions the process's client was given; every one must
    # end as a ``"transfer"`` operation by quiescence (``check_agreement``).
    submitted: int = 0

    def __post_init__(self) -> None:
        if len(self.validated) != len(self.dependencies):
            raise ConfigurationError(
                f"process {self.process}: {len(self.validated)} validated transfers "
                f"but {len(self.dependencies)} dependency entries"
            )


@dataclass
class CheckReport:
    """Result of a Byzantine asset-transfer check."""

    ok: bool
    violations: List[str] = field(default_factory=list)
    checked_transfers: int = 0
    checked_processes: int = 0

    def __bool__(self) -> bool:
        return self.ok


def _overdrafts(
    initial: Mapping[AccountId, Amount], transfers: Iterable[Transfer]
) -> List[Tuple[Transfer, Amount]]:
    """Replay ``transfers`` in order from ``initial``: each one that leaves its
    source negative, with that balance.  Debit before credit, read after both,
    so a self-transfer is one step."""
    balances: Dict[AccountId, Amount] = {}
    overdrafts: List[Tuple[Transfer, Amount]] = []
    for transfer in transfers:
        source, destination, amount = transfer.source, transfer.destination, transfer.amount
        balances[source] = (
            balances[source] if source in balances else initial.get(source, 0)
        ) - amount
        balances[destination] = (
            balances[destination] if destination in balances else initial.get(destination, 0)
        ) + amount
        balance = balances[source]
        if balance < 0:
            overdrafts.append((transfer, balance))
    return overdrafts


# C3's slot key for a transfer or a TransferId: a plain tuple, so no TransferId is
# built or hashed.
_issue_key = attrgetter("issuer", "sequence")


def check_agreement(observations: Sequence[ProcessObservation]) -> CheckReport:
    """Agreement and validity over a *quiescent* run's correct processes.

    ``agreement``: every process validated the same set of transfers, the
    union of what any of them validated.  ``validity``: every process
    answered each transfer submission it was given.  Mid-run both fail
    legitimately (a replica lags, a broadcast is in flight), so callers
    audit only a run with nothing pending; the systems' ``check_agreement``
    refuses anything else.
    """
    validated = [set(obs.validated) for obs in observations]
    union: Set[Transfer] = set().union(*validated)
    violations: List[str] = []
    for obs, seen in zip(observations, validated):
        if len(seen) < len(union):
            missing = sorted(map(_issue_key, union - seen))
            shown = ", ".join(f"p{issuer}#{sequence}" for issuer, sequence in missing[:3])
            more = f" and {len(missing) - 3} more" if len(missing) > 3 else ""
            violations.append(
                f"agreement violation: process {obs.process} validated {len(seen)} of the "
                f"{len(union)} transfers correct processes validated (missing {shown}{more})"
            )
    for obs in observations:
        answered = sum(1 for op in obs.operations if op.kind == "transfer")
        if answered != obs.submitted:
            violations.append(
                f"validity violation: process {obs.process} answered {answered} of the "
                f"{obs.submitted} transfer submissions it was given"
            )
    return CheckReport(
        ok=not violations,
        violations=violations,
        checked_transfers=sum(map(len, validated)),
        checked_processes=len(observations),
    )


class ByzantineAssetTransferChecker:
    """Checks executions of the message-passing protocol against Definition 1."""

    def __init__(self, initial_balances: Mapping[AccountId, Amount]) -> None:
        self._initial_balances = dict(initial_balances)

    # -- public API ---------------------------------------------------------------

    def check(self, observations: Sequence[ProcessObservation]) -> CheckReport:
        """Run all checks over the given per-process observations."""
        violations: List[str] = []
        violations.extend(self._check_per_account_agreement(observations))
        violations.extend(self._check_local_balance_safety(observations))
        violations.extend(self._check_global_order(observations))
        violations.extend(self._check_local_views(observations))
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
            for transfer in obs.validated:
                known = slots.setdefault((transfer.source, transfer.sequence), transfer)
                if known is not transfer and known != transfer:
                    violations.append(
                        "C1 agreement violation (double spend): account "
                        f"{transfer.source!r} sequence {transfer.sequence} was validated as "
                        f"{known} by one correct process and as {transfer} by process "
                        f"{obs.process}"
                    )
        return violations

    # -- C2: local balance safety -----------------------------------------------------

    def _check_local_balance_safety(
        self, observations: Sequence[ProcessObservation]
    ) -> List[str]:
        violations: List[str] = []
        for obs in observations:
            for transfer, balance in _overdrafts(self._initial_balances, obs.validated):
                violations.append(
                    f"C2 balance violation at process {obs.process}: applying {transfer} "
                    f"drives account {transfer.source!r} to {balance}"
                )
        return violations

    # -- C3: global legality and real-time order ----------------------------------------

    def _check_global_order(self, observations: Sequence[ProcessObservation]) -> List[str]:
        violations: List[str] = []

        # Union of validated transfers across correct processes.  Each distinct
        # ``(issuer, sequence)`` gets a slot in first-seen order; every table
        # below is a list indexed by slot.
        index: Dict[Tuple[ProcessId, int], int] = {}
        transfers: List[Transfer] = []
        declared: List[Optional[Set[Tuple[ProcessId, int]]]] = []
        for obs in observations:
            for transfer, dependencies in zip(obs.validated, obs.dependencies):
                key = _issue_key(transfer)
                slot = index.get(key)
                if slot is None:
                    slot = index[key] = len(transfers)
                    transfers.append(transfer)
                    declared.append(None)
                if dependencies:
                    deps = declared[slot]
                    if deps is None:
                        deps = declared[slot] = set()
                    deps.update(map(_issue_key, dependencies))

        # Dependency edges: per-source sequence order plus declared dependencies.
        # ``blocked[s]`` counts the distinct slots that must precede ``s``.
        count = len(transfers)
        blocked = [0] * count
        dependents: List[List[int]] = [[] for _ in range(count)]
        previous: List[Optional[int]] = [None] * count
        by_source: Dict[AccountId, List[int]] = {}
        for slot, transfer in enumerate(transfers):
            by_source.setdefault(transfer.source, []).append(slot)
        for slots in by_source.values():
            slots.sort(key=lambda s: transfers[s].sequence)
            for earlier, later in zip(slots, slots[1:]):
                previous[later] = earlier
                blocked[later] = 1
                dependents[earlier].append(later)
        for later, deps in enumerate(declared):
            if deps is None:
                continue
            for dep in deps:
                earlier = index.get(dep)
                if earlier is not None and earlier != previous[later]:
                    blocked[later] += 1
                    dependents[earlier].append(later)

        # Real-time span of each successful transfer of a correct process; a
        # later operation on the same transfer overwrites the span but keeps
        # its place in ``spanned`` (first-seen order).
        invoked: List[float] = [0.0] * count
        responded: List[Optional[float]] = [None] * count
        spanned: List[int] = []
        for obs in observations:
            for op in obs.operations:
                if op.kind != "transfer" or op.transfer is None:
                    continue
                if op.response is not True or op.responded_at is None:
                    continue
                slot = index.get(_issue_key(op.transfer))
                if slot is None:
                    violations.append(
                        f"C3 completeness violation: process {obs.process} completed "
                        f"{op.transfer} successfully but no correct process validated it"
                    )
                    continue
                if responded[slot] is None:
                    spanned.append(slot)
                invoked[slot] = op.invoked_at
                responded[slot] = op.responded_at

        order = self._topological_order(
            list(index), blocked, dependents, spanned, invoked, responded
        )
        if order is None:
            violations.append(
                "C3 order violation: the dependency + real-time relation over validated "
                "transfers contains a cycle; no sequential witness exists"
            )
            return violations

        for transfer, _ in _overdrafts(self._initial_balances, map(transfers.__getitem__, order)):
            violations.append(
                f"C3 legality violation: sequential witness drives account "
                f"{transfer.source!r} negative at {transfer}"
            )
        return violations

    @staticmethod
    def _topological_order(
        keys: List[Tuple[ProcessId, int]],
        blocked: List[int],
        dependents: List[List[int]],
        spanned: List[int],
        invoked: List[float],
        responded: List[Optional[float]],
    ) -> Optional[List[int]]:
        """Kahn's algorithm over the explicit edges plus the real-time order.

        Slot ``s`` is the transfer ``keys[s]`` (its ``(issuer, sequence)``);
        ``blocked[s]`` counts its explicit predecessors and ``dependents[s]``
        lists its explicit successors.  Each slot in ``spanned`` completed
        over ``(invoked[s], responded[s])`` and must also follow every other
        one that responded strictly before it was invoked.  Those are a
        prefix of the completion order, so instead of one edge per pair the
        slot gets a single extra blocker, lifted once that prefix is out.
        Consumes ``blocked`` and ``dependents``.
        """
        done_order = sorted(spanned, key=responded.__getitem__)
        done_times = [responded[slot] for slot in done_order]
        done_rank: List[Optional[int]] = [None] * len(keys)
        for rank, slot in enumerate(done_order):
            done_rank[slot] = rank
        # waiting[k]: slots invoked after exactly the first k completions.
        # A span never waits for its own completion, hence the ``min``.
        waiting: Dict[int, List[int]] = {}
        for slot in spanned:
            needed = bisect_left(done_times, min(invoked[slot], responded[slot]))
            if needed:
                blocked[slot] += 1
                waiting.setdefault(needed, []).append(slot)

        issue_order = keys.__getitem__
        ready = deque(sorted((s for s, n in enumerate(blocked) if not n), key=issue_order))
        order: List[int] = []
        emitted = [False] * len(done_order)
        prefix = 0
        while ready:
            current = ready.popleft()
            order.append(current)
            # Every slot is emitted once, so its dependents list can take the
            # waiters this emission releases.
            released = dependents[current]
            rank = done_rank[current]
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
            batch.sort(key=issue_order)
            ready.extend(batch)
        if len(order) != len(keys):
            return None
        return order

    # -- C4: local views ------------------------------------------------------------------

    def _check_local_views(self, observations: Sequence[ProcessObservation]) -> List[str]:
        violations: List[str] = []
        for obs in observations:
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
            seen = self._prefix_balances({account for _, account in pending}, obs.validated)
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
        self, accounts: Set[AccountId], log: Sequence[Transfer]
    ) -> Dict[AccountId, Set[Amount]]:
        """Every balance each of ``accounts`` takes over the prefixes of ``log``, in one pass."""
        running = {account: self._initial_balances.get(account, 0) for account in accounts}
        seen = {account: {balance} for account, balance in running.items()}
        for transfer in log:
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

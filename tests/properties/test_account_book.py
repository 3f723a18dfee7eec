"""Differential property test: the account book is the fold.

Figure 4 states every balance as ``balance(a, hist[a] ∪ deps)``, a fold over
the validated history.  The nodes no longer evaluate that fold — they read a
running balance off :class:`repro.core.accounts.AccountBook` — so this file
keeps the fold (:func:`repro.core.accounts.balance_from_transfers`, the
specification) as the slow reference and requires, after **every** step of a
random schedule, ``book.balance(a) == fold`` for every account the schedule
ever named, on every replica.

The schedule mixes everything that moves a record in or out of the book:
client transfers through the real secure broadcast (batches and self-transfers
included), hand-fed announcements declaring arbitrary already-validated
dependencies (line 15, most of them irrelevant to the source account) or
overdrawing and parking until a mint funds them, certified mints (also
repeated), retirements (of resident records, of records still in ``deps``,
and of records not validated yet — parked, then applied at validation),
consumed-record compaction, snapshot round trips and checkpoint restores after
which the schedule *continues on the restored twin*.
"""

from typing import List, Set

from hypothesis import given, settings, strategies as st

from repro.byzantine.faults import FaultKind, FaultModel
from repro.cluster.settlement import settlement_account, settlement_issuer
from repro.cluster.shard import Shard
from repro.common.types import OwnershipMap, Transfer
from repro.core.accounts import balance_from_transfers
from repro.mp.consensusless_transfer import account_of
from repro.mp.k_shared import KSharedSystem
from repro.mp.messages import TransferAnnouncement
from repro.mp.system import ClientSubmission, ConsensuslessSystem
from repro.network.node import NetworkConfig

FAST = NetworkConfig(
    latency_base=0.0002,
    latency_mean=0.0003,
    processing_time=0.000002,
    signature_verification_time=0.00002,
    seed=42,
)
REPLICAS = 4
ANNOUNCER = 3  # this replica's announcements are hand-fed; 0-2 are real clients
DESTINATIONS = ["0", "1", "2", "3", "x1:0", "x1:7"]


# -- the slow formulation: the specification -----------------------------------------------------


def fold_balance(node, account: str) -> int:
    """``balance(a, hist[a] ∪ deps)`` over the baseline the snapshots ship."""
    history = set(node.hist.get(account, ()))
    if account == node.account:
        history |= node.deps
    base = node._initial_balances.get(account, 0) + node.book.offsets.get(account, 0)
    return balance_from_transfers(account, base, history)


def assert_book_is_the_fold(nodes, known: Set[str]) -> None:
    for node in nodes:
        for account in sorted(known | set(node.hist)):
            expected = fold_balance(node, account)
            assert node.book.balance(account) == expected, (node, account)
            assert node.balance_of(account) == expected, (node, account)


# -- Figure 4 nodes, plain and batching ----------------------------------------------------------


class _Schedule:
    """Drives one replica group step by step; every replica sees every step."""

    def __init__(self, batch_size: int, compact: bool) -> None:
        self.shard = Shard(
            index=0,
            replicas=REPLICAS,
            initial_balance=20,
            batch_size=batch_size,
            network_config=FAST,
            seed=1,
            compact_history=compact,
        )
        self.shard.start()
        self.known: Set[str] = set(DESTINATIONS)
        self.recorded: List[Transfer] = []
        self.announced = 0
        self.mints = 0

    @property
    def nodes(self):
        return [self.shard.nodes[pid] for pid in sorted(self.shard.nodes)]

    def check(self) -> None:
        assert_book_is_the_fold(self.nodes, self.known)

    def _note_validated(self) -> None:
        for validated in self.nodes[0].observation().validated[len(self.recorded):]:
            self.recorded.append(validated.transfer)

    def submit(self, issuer: int, destination: int, amount: int, burst: int) -> None:
        node = self.shard.nodes[issuer % ANNOUNCER]
        for extra in range(1 + burst % 3):
            node.submit_transfer(DESTINATIONS[destination % len(DESTINATIONS)], amount + extra)
        self.shard.advance(None)
        self._note_validated()

    def announce(self, destination: int, amount: int, picks: List[int], retire_first: bool) -> None:
        self.announced += 1
        transfer = Transfer(
            source=account_of(ANNOUNCER),
            destination=DESTINATIONS[destination % len(DESTINATIONS)],
            amount=amount,
            issuer=ANNOUNCER,
            sequence=self.announced,
        )
        resident = [t for t in self.recorded if t in self.nodes[0].book]
        chosen = {resident[pick % len(resident)] for pick in picks} if resident else set()
        dependencies = tuple(sorted(chosen, key=lambda t: (t.issuer, t.sequence)))
        if retire_first:
            # The retirement outruns the record: parked, applied at validation.
            self.shard.retire_settled([transfer])
        announcement = TransferAnnouncement(transfer=transfer, dependencies=dependencies)
        for node in self.nodes:
            if node._receive_announcement(ANNOUNCER, announcement):
                node._validation_pass()
        self._note_validated()

    def mint(self, destination: int, amount: int, repeat: bool) -> None:
        self.mints += 1
        transfer = Transfer(
            source=settlement_account(1, 0),
            destination=account_of(destination % REPLICAS),
            amount=amount,
            issuer=settlement_issuer(1, 0),
            sequence=self.mints,
        )
        self.known.add(transfer.source)
        for node in self.nodes:
            logged = node.validated_count
            node.mint_certified_credit(transfer)
            if repeat:
                after_first = (node.validated_count, node.book.balance(transfer.destination))
                node.mint_certified_credit(transfer)
                assert (node.validated_count, node.book.balance(transfer.destination)) == after_first
            assert node.validated_count > logged
        self._note_validated()

    def retire(self, pick: int) -> None:
        if not self.recorded:
            return
        transfer = self.recorded[pick % len(self.recorded)]
        resident = transfer in self.nodes[0].book
        accounts = sorted(self.known)
        before = [[node.balance_of(account) for account in accounts] for node in self.nodes]
        self.shard.retire_settled([transfer])
        # What retirement means, stated without the book's own offsets: the
        # credit leaves the destination, no other balance moves.
        if resident:
            for balances in before:
                balances[accounts.index(transfer.destination)] -= transfer.amount
        after = [[node.balance_of(account) for account in accounts] for node in self.nodes]
        assert after == before

    def read(self, node: int, account: int) -> None:
        reader = self.shard.nodes[node % REPLICAS]
        target = DESTINATIONS[account % len(DESTINATIONS)]
        assert reader.read(target) == fold_balance(reader, target)

    def snapshot_round_trip(self) -> None:
        snapshot = self.shard.snapshot()
        twin = self.shard.spec().build()
        twin.restore(snapshot)
        twins = [twin.nodes[pid] for pid in sorted(twin.nodes)]
        assert_book_is_the_fold(twins, self.known)
        for node, restored in zip(self.nodes, twins):
            assert restored.all_known_balances() == node.all_known_balances()

    def resume_from_checkpoint(self) -> None:
        checkpoint = self.shard.checkpoint()
        assert checkpoint is not None, self.shard.checkpoint_blockers()
        twin = self.shard.spec().build()
        twin.start()
        twin.restore_checkpoint(checkpoint, [])
        self.shard = twin  # every later step validates against rebuilt balances


amounts = st.integers(min_value=0, max_value=30)
small = st.integers(min_value=0, max_value=11)
submits = st.tuples(st.just("submit"), small, small, amounts, small)
steps = st.one_of(
    submits,
    submits,  # twice as likely: spending is what consumes and compacts credits
    st.tuples(st.just("announce"), small, amounts, st.lists(small, max_size=3), st.booleans()),
    st.tuples(st.just("mint"), small, amounts, st.booleans()),
    st.tuples(st.just("retire"), small),
    st.tuples(st.just("read"), small, small),
    st.tuples(st.just("snapshot_round_trip")),
    st.tuples(st.just("resume_from_checkpoint")),
)


@settings(max_examples=60, deadline=None)
@given(
    batch_size=st.sampled_from([1, 3]),
    compact=st.booleans(),
    schedule=st.lists(steps, min_size=8, max_size=24),
)
def test_book_equals_fold_after_every_step(batch_size, compact, schedule):
    run = _Schedule(batch_size, compact)
    run.check()
    for kind, *arguments in schedule:
        getattr(run, kind)(*arguments)
        run.check()


def test_schedule_reaches_every_mechanism():
    """The generator above is only worth its name if its steps do what their
    names say; pin one hand-written schedule that provably hits each one."""
    run = _Schedule(batch_size=3, compact=True)
    run.submit(0, 1, 5, 2)                      # a batch 0 -> "1"
    run.submit(1, 0, 4, 0)                      # "1" spends, declaring 0's credits
    assert run.nodes[0].compacted_local_records > 0
    run.submit(2, 2, 3, 0)                      # self-transfer
    run.announce(4, 50, [0, 1], True)           # overdraft, irrelevant deps: parks
    assert run.nodes[0].to_validate and run.nodes[0]._pending_retirements
    run.check()
    run.resume_from_checkpoint()
    run.mint(ANNOUNCER, 40, True)               # funds it: validates, then retires
    assert not run.nodes[0].to_validate and not run.nodes[0]._pending_retirements
    assert run.nodes[0].retired_records == 1
    run.check()
    run.mint(0, 6, False)
    credit = run.recorded[-1]
    assert credit in run.nodes[0].deps
    run.retire(len(run.recorded) - 1)           # a record still in deps
    assert credit not in run.nodes[0].deps
    run.check()
    run.snapshot_round_trip()


# -- the k-shared node -----------------------------------------------------------------------------


K_ACCOUNTS = ["joint", "3", "4", "5"]
K_OWNERS = {"joint": (0, 1, 2), "3": (3,), "4": (4,), "5": (5,)}
K_OWNED = {owner: account for account, owners in K_OWNERS.items() for owner in owners}


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 60)),
        min_size=3,
        max_size=8,
    )
)
def test_k_shared_book_equals_fold(submissions):
    system = KSharedSystem(
        ownership=OwnershipMap(K_OWNERS),
        process_count=6,
        initial_balances={"joint": 100, "3": 50, "4": 50, "5": 50},
        network_config=FAST,
        seed=5,
    )
    for step, (issuer, destination, amount) in enumerate(submissions, start=1):
        system.submit(0.02 * step - 0.01, issuer, K_OWNED[issuer], K_ACCOUNTS[destination], amount)
        system.run(until=0.02 * step)
        for node in system.correct_nodes():
            for account in K_ACCOUNTS:
                history = set(node.hist.get(account, ())) | node.deps.get(account, set())
                expected = balance_from_transfers(
                    account, node._initial_balances.get(account, 0), history
                )
                assert node.book.balance(account) == expected
                assert node.read(account) == expected


# -- a whole system under the double-spender --------------------------------------------------


def test_book_equals_fold_under_the_double_spender():
    fault_model = FaultModel(total_processes=6, faults={5: FaultKind.DOUBLE_SPEND})
    system = ConsensuslessSystem(
        process_count=6,
        initial_balance=50,
        broadcast="bracha",
        network_config=FAST,
        fault_model=fault_model,
        seed=2,
    )
    system.schedule_submissions(
        [
            ClientSubmission(
                time=0.001 * i, issuer=i % 5, destination=account_of((i + 1) % 6), amount=7 + i
            )
            for i in range(15)
        ]
    )
    system.trigger_attacks(0.0005)
    known = {account_of(pid) for pid in range(6)}
    for step in range(1, 30):
        system.run(until=0.001 * step)
        assert_book_is_the_fold(system.correct_nodes(), known)
    system.run()
    assert_book_is_the_fold(system.correct_nodes(), known)
    assert system.result.committed_count > 0

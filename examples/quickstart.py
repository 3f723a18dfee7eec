#!/usr/bin/env python3
"""Quickstart: the paper's results in two minutes.

1. Build an asset-transfer object from an atomic snapshot (Figure 1) — no
   consensus anywhere — and move money around.
2. Solve consensus among k processes using one k-shared asset-transfer
   object (Figure 2), demonstrating Theorem 2's lower bound.
3. Run the consensusless message-passing protocol (Figure 4) on a simulated
   Byzantine network and check Definition 1.

Run with:  python examples/quickstart.py
"""

from repro.common import OwnershipMap
from repro.core.consensus_from_asset_transfer import ConsensusFromAssetTransfer
from repro.core.snapshot_asset_transfer import SnapshotAssetTransfer
from repro.mp.consensusless_transfer import account_of
from repro.mp.system import ClientSubmission, ConsensuslessSystem
from repro.shared_memory.afek_snapshot import AfekSnapshot
from repro.spec.byzantine_spec import ByzantineAssetTransferChecker


def shared_memory_demo() -> None:
    print("== Figure 1: asset transfer from registers (consensus number 1) ==")
    ownership = OwnershipMap.single_owner({"alice": 0, "bob": 1, "carol": 2})
    # The snapshot itself is built from single-writer registers (Afek et al.),
    # so the whole stack uses nothing stronger than read/write memory.
    asset_transfer = SnapshotAssetTransfer(
        ownership,
        initial_balances={"alice": 100, "bob": 50, "carol": 0},
        memory=AfekSnapshot(size=3),
    )
    print("alice -> bob 30:", asset_transfer.transfer_now(0, "alice", "bob", 30))
    print("bob -> carol 70:", asset_transfer.transfer_now(1, "bob", "carol", 70))
    print("alice overdraft of 200:", asset_transfer.transfer_now(0, "alice", "bob", 200))
    print("balances:", asset_transfer.balances_now())
    print()


def consensus_demo() -> None:
    print("== Figure 2: consensus from one k-shared asset-transfer object ==")
    k = 4
    protocol = ConsensusFromAssetTransfer(k=k)
    decisions = {p: protocol.propose_now(p, f"proposal-from-{p}") for p in range(k)}
    print("decisions:", decisions)
    assert len(set(decisions.values())) == 1, "consensus must agree"
    print()


def message_passing_demo() -> None:
    print("== Figure 4: consensusless payments on a Byzantine network ==")
    system = ConsensuslessSystem(process_count=6, initial_balance=100, broadcast="bracha", seed=1)
    submissions = [
        ClientSubmission(time=0.001 * i, issuer=i, destination=account_of((i + 1) % 6), amount=10)
        for i in range(6)
    ]
    system.schedule_submissions(submissions)
    result = system.run()
    print(f"committed {result.committed_count} transfers "
          f"in {result.duration * 1000:.1f} simulated ms "
          f"({result.messages_per_commit:.0f} messages per transfer)")
    report = ByzantineAssetTransferChecker(system.initial_balances()).check(system.observations())
    print("Definition 1 (no double spending, consistent views):", "OK" if report.ok else report.violations)
    print("balances seen by process 0:", system.balances_at(0))


if __name__ == "__main__":
    shared_memory_demo()
    consensus_demo()
    message_passing_demo()

"""Byzantine nodes attacking the consensusless transfer protocol.

Experiment E4 checks the protocol's safety under attack.  Two attacker
classes are provided:

* :class:`SilentNode` — a crashed / muted process.  It never sends anything;
  the protocol must stay safe and live for the other accounts (it trivially
  does — a silent owner only sacrifices its own liveness).
* :class:`DoubleSpendAttacker` — the canonical adversary: it crafts two
  conflicting transfers with the *same* sequence number, spending the same
  funds to two different beneficiaries, and equivocates at the broadcast
  level by telling one half of the system about one transfer and the other
  half about the other.  The secure broadcast's consistency (echo quorums
  intersect in a correct process that acknowledges only one payload per
  instance) guarantees that correct processes never validate both — the
  attacker can at most block its own account.

The attacker speaks the broadcast wire format directly (it does not reuse
the honest layer), which is exactly what a real Byzantine implementation
could do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.broadcast.messages import SendMessage
from repro.byzantine.behaviors import EquivocationPlan
from repro.common.types import AccountId, Amount, ProcessId, Transfer
from repro.crypto.signatures import SignatureScheme
from repro.mp.consensusless_transfer import account_of
from repro.mp.messages import TransferAnnouncement
from repro.network.node import Node


class SilentNode(Node):
    """A process that crashed before sending anything."""

    def on_message(self, sender: ProcessId, message: Any) -> None:
        # A crashed process processes nothing.  (Messages are still charged
        # to its CPU by the network model, which is irrelevant to results.)
        return


class DoubleSpendAttacker(Node):
    """A malicious owner attempting to double-spend its account.

    Parameters
    ----------
    initial_balances:
        The system's initial balances (used to size the conflicting
        transfers so both are individually plausible).
    broadcast_kind:
        ``"bracha"`` or ``"echo"`` — the attacker mimics the wire format of
        the broadcast the correct processes run.
    scheme:
        Signature scheme (needed only to keep interfaces uniform; the
        attacker cannot forge other processes' signatures with it).
    victim_a / victim_b:
        The two beneficiaries of the conflicting transfers.  Defaults to the
        two lowest-numbered other processes.
    overlap:
        Fraction of the system that receives *both* conflicting transfers.
        ``0.0`` is a clean partition; ``1.0`` sends both to everyone (the
        "race" variant).  Any value keeps double-spending impossible; tests
        sweep it to show that.
    """

    def __init__(
        self,
        node_id: ProcessId,
        initial_balances: Dict[AccountId, Amount],
        broadcast_kind: str = "bracha",
        scheme: Optional[SignatureScheme] = None,
        victim_a: Optional[ProcessId] = None,
        victim_b: Optional[ProcessId] = None,
        overlap: float = 0.0,
    ) -> None:
        super().__init__(node_id)
        self.account = account_of(node_id)
        self._initial_balances = dict(initial_balances)
        self.broadcast_kind = broadcast_kind
        self.scheme = scheme
        self.victim_a = victim_a
        self.victim_b = victim_b
        self.overlap = overlap
        self.attack_launched = False
        self.conflicting_transfers: Tuple[Optional[Transfer], Optional[Transfer]] = (None, None)

    # -- attack -------------------------------------------------------------------------------

    def launch_attack(self) -> None:
        """Broadcast two conflicting transfers with the same sequence number."""
        if self.attack_launched:
            return
        self.attack_launched = True
        others = [pid for pid in self.peers if pid != self.node_id]
        victim_a = self.victim_a if self.victim_a is not None else others[0]
        victim_b = self.victim_b if self.victim_b is not None else others[1 % len(others)]
        amount = self._initial_balances.get(self.account, 0)
        if amount <= 0:
            amount = 1

        transfer_a = Transfer(
            source=self.account,
            destination=account_of(victim_a),
            amount=amount,
            issuer=self.node_id,
            sequence=1,
        )
        transfer_b = Transfer(
            source=self.account,
            destination=account_of(victim_b),
            amount=amount,
            issuer=self.node_id,
            sequence=1,
        )
        self.conflicting_transfers = (transfer_a, transfer_b)

        plan = EquivocationPlan.split_evenly(self.peers, exclude=(self.node_id,))
        message_a = SendMessage(
            channel="transfer",
            origin=self.node_id,
            sequence=1,
            payload=TransferAnnouncement(transfer=transfer_a),
        )
        message_b = SendMessage(
            channel="transfer",
            origin=self.node_id,
            sequence=1,
            payload=TransferAnnouncement(transfer=transfer_b),
        )
        overlap_count = int(self.overlap * len(plan.partition_b))
        overlap_targets = set(plan.partition_b[:overlap_count])

        for recipient in plan.partition_a:
            self.send(recipient, message_a)
        for recipient in plan.partition_b:
            self.send(recipient, message_b)
        # The overlap group additionally receives the *other* transfer, so the
        # attacker races the two payloads against each other there.
        for recipient in overlap_targets:
            self.send(recipient, message_a)
        for recipient in plan.partition_a[: int(self.overlap * len(plan.partition_a))]:
            self.send(recipient, message_b)

    # -- protocol participation -----------------------------------------------------------------

    def on_message(self, sender: ProcessId, message: Any) -> None:
        """The attacker ignores the protocol.

        Not echoing or acknowledging other processes' broadcasts is within
        its power as a Byzantine process; the primitives tolerate up to
        ``f < N/3`` such processes.
        """

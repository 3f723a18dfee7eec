"""System façade wiring the consensusless protocol into the simulator.

:class:`ConsensuslessSystem` builds the network, the transfer nodes and the
chosen secure-broadcast layer, schedules client submissions, runs the
simulation and exposes the artefacts the evaluation needs: per-transfer
latency records, message counts, final balances and the per-process
observations consumed by the Definition 1 checker.

The same façade shape is provided for the consensus-based baseline in
:mod:`repro.bft.consensus_transfer`, so benchmarks can drive both systems
with identical workloads and report like-for-like numbers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.broadcast.bracha import BrachaBroadcast
from repro.broadcast.echo_broadcast import EchoBroadcast
from repro.byzantine.faults import FaultKind, FaultModel
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import AccountId, Amount, ProcessId
from repro.crypto.signatures import SignatureScheme
from repro.mp.attackers import DoubleSpendAttacker, SilentNode
from repro.mp.consensusless_transfer import (
    ConsensuslessTransferNode,
    TransferRecord,
    account_of,
)
from repro.network.node import Network, NetworkConfig, Node
from repro.network.simulator import Simulator
from repro.spec.byzantine_spec import CheckReport, ProcessObservation, check_agreement


@dataclass(frozen=True)
class ClientSubmission:
    """One scheduled client request: at ``time``, ``issuer`` pays ``destination``."""

    time: float
    issuer: ProcessId
    destination: AccountId
    amount: Amount


@dataclass
class SystemResult:
    """Outcome of one simulated run (either system)."""

    committed: List[TransferRecord] = field(default_factory=list)
    rejected: List[TransferRecord] = field(default_factory=list)
    duration: float = 0.0
    messages_sent: int = 0
    events_processed: int = 0

    @property
    def committed_count(self) -> int:
        return sum(1 for record in self.committed if record.success)

    @property
    def throughput(self) -> float:
        """Committed transfers per simulated second."""
        if self.duration <= 0:
            return 0.0
        return self.committed_count / self.duration

    @property
    def latencies(self) -> List[float]:
        return [record.latency for record in self.committed if record.success]

    @property
    def average_latency(self) -> float:
        values = self.latencies
        return sum(values) / len(values) if values else 0.0

    @property
    def messages_per_commit(self) -> float:
        if self.committed_count == 0:
            return 0.0
        return self.messages_sent / self.committed_count


class ConsensuslessSystem:
    """A complete simulated deployment of the Figure 4 protocol.

    Parameters
    ----------
    process_count:
        Number of processes ``N`` (one account per process).
    initial_balance:
        Initial balance of every account, an ``int`` >= 0.
    broadcast:
        ``"bracha"`` (the paper's quadratic primitive, default) or ``"echo"``
        (the signed variant, linear up to its one FINAL relay).
    network_config:
        Latency / CPU cost model; defaults to :class:`NetworkConfig` defaults.
    fault_model:
        Which processes are faulty and how.  ``DOUBLE_SPEND`` processes run
        the :class:`~repro.mp.attackers.DoubleSpendAttacker`; ``CRASH`` and
        ``SILENT`` processes run :class:`~repro.mp.attackers.SilentNode`.
    seed:
        Seeds the key material, and the network when ``network_config``
        leaves its own seed at 0.  The caller's config is never modified.
    batch_size:
        Transfers per secure-broadcast instance at every correct node (see
        :class:`~repro.mp.consensusless_transfer.ConsensuslessTransferNode`);
        1 is the paper's protocol.
    """

    def __init__(
        self,
        process_count: int,
        initial_balance: Amount = 1_000,
        broadcast: str = "bracha",
        network_config: Optional[NetworkConfig] = None,
        fault_model: Optional[FaultModel] = None,
        seed: int = 0,
        batch_size: int = 1,
    ) -> None:
        if process_count < 4:
            raise ConfigurationError(
                "the Byzantine message-passing protocols need at least 4 processes"
            )
        if broadcast not in ("bracha", "echo"):
            raise ConfigurationError(f"unknown broadcast kind {broadcast!r}")
        # Balances are naturals: a NaN, a fraction or a debt would run to the
        # end and only then fail Definition 1 and the supply audit.
        if type(initial_balance) is not int or initial_balance < 0:
            raise ConfigurationError(
                f"initial_balance must be an int >= 0, not {initial_balance!r}"
            )
        self.process_count = process_count
        self.initial_balance = initial_balance
        self.broadcast_kind = broadcast
        self.fault_model = fault_model or FaultModel.all_correct(process_count)
        if self.fault_model.total_processes != process_count:
            raise ConfigurationError("fault model size does not match process count")
        self.batch_size = batch_size

        self.simulator = Simulator()
        config = network_config or NetworkConfig()
        self.network = Network(
            self.simulator, dataclasses.replace(config, seed=config.seed or seed)
        )
        self.scheme = SignatureScheme(seed=seed)
        self._result = SystemResult()
        self._balances: Dict[AccountId, Amount] = {
            account_of(pid): initial_balance for pid in range(process_count)
        }
        self.nodes: Dict[ProcessId, Node] = {}
        self._build_nodes()

    # -- construction ---------------------------------------------------------------------------

    def _broadcast_factory(self, **kwargs):
        if self.broadcast_kind == "bracha":
            return BrachaBroadcast(**kwargs)
        return EchoBroadcast(scheme=self.scheme, **kwargs)

    def _build_nodes(self) -> None:
        for pid in range(self.process_count):
            kind = self.fault_model.kind_of(pid)
            node: Node
            if kind is None:
                node = ConsensuslessTransferNode(
                    node_id=pid,
                    initial_balances=self._balances,
                    broadcast_factory=self._broadcast_factory,
                    on_complete=self._record_completion,
                    batch_size=self.batch_size,
                )
            elif kind in (FaultKind.CRASH, FaultKind.SILENT):
                node = SilentNode(node_id=pid)
            elif kind in (FaultKind.DOUBLE_SPEND, FaultKind.EQUIVOCATE, FaultKind.ARBITRARY):
                node = DoubleSpendAttacker(
                    node_id=pid,
                    initial_balances=self._balances,
                    broadcast_kind=self.broadcast_kind,
                    scheme=self.scheme,
                )
            else:  # pragma: no cover - defensive, FaultKind is closed
                raise ConfigurationError(f"unsupported fault kind {kind}")
            self.nodes[pid] = node
        self.network.add_nodes(self.nodes.values())

    def _record_completion(self, record: TransferRecord) -> None:
        if record.success:
            self._result.committed.append(record)
        else:
            self._result.rejected.append(record)

    # -- driving --------------------------------------------------------------------------------

    def correct_node(self, pid: ProcessId) -> ConsensuslessTransferNode:
        node = self.nodes[pid]
        if not isinstance(node, ConsensuslessTransferNode):
            raise ConfigurationError(f"process {pid} is not a correct transfer node")
        return node

    def correct_nodes(self) -> List[ConsensuslessTransferNode]:
        return [
            node for node in self.nodes.values() if isinstance(node, ConsensuslessTransferNode)
        ]

    def schedule_submissions(self, submissions: Iterable[ClientSubmission]) -> int:
        """Post client submissions (nothing cancels one); faulty issuers are skipped."""
        scheduled = 0
        self.network.start()
        post = self.simulator.post
        for submission in submissions:
            if self.fault_model.is_faulty(submission.issuer):
                continue
            node = self.correct_node(submission.issuer)
            post(
                submission.time, node.submit_transfer, (submission.destination, submission.amount)
            )
            scheduled += 1
        return scheduled

    def trigger_attacks(self, at_time: float = 0.0) -> None:
        """Ask every attacker node to launch its attack at ``at_time``."""
        self.network.start()
        for node in self.nodes.values():
            if isinstance(node, DoubleSpendAttacker):
                self.simulator.post(at_time, node.launch_attack, ())

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> SystemResult:
        """Run the simulation to quiescence (or the given horizon)."""
        self.network.run(until=until, max_events=max_events)
        self._result.duration = self.simulator.now
        self._result.messages_sent = self.network.messages_sent
        self._result.events_processed = self.simulator.processed_events
        return self._result

    # -- inspection --------------------------------------------------------------------------------

    @property
    def result(self) -> SystemResult:
        return self._result

    def observations(self) -> List[ProcessObservation]:
        """Per-correct-process observations for the Definition 1 checker."""
        return [node.observation() for node in self.correct_nodes()]

    def check_agreement(self) -> CheckReport:
        """Agreement and validity at quiescence (``byzantine_spec.check_agreement``).

        Refuses a run stopped by ``until`` with events still pending: there
        a lagging replica or an unanswered client is not yet a violation.
        """
        pending = self.simulator.pending_events
        if pending:
            raise SimulationError(
                f"the agreement audit needs a quiescent run, and {pending} events are pending"
            )
        return check_agreement(self.observations())

    def initial_balances(self) -> Dict[AccountId, Amount]:
        return dict(self._balances)

    def balances_at(self, pid: ProcessId) -> Dict[AccountId, Amount]:
        """Balances of all accounts as seen by one correct node."""
        return self.correct_node(pid).all_known_balances()

    def total_supply_at(self, pid: ProcessId) -> Amount:
        """Total money supply as seen by one correct node (conservation check)."""
        balances = self.balances_at(pid)
        return sum(balances.get(account_of(q), 0) for q in range(self.process_count))

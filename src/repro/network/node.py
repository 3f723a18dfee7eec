"""Nodes, links and per-node CPU queues.

The :class:`Network` connects a set of :class:`Node` objects through the
discrete-event simulator.  Its cost model has two knobs, both of which the
evaluation sweeps:

* **Link latency** — every message experiences an exponentially distributed
  network delay (mean ``latency_mean``) plus a fixed ``latency_base``.
  Exponential delays model asynchrony: there is no bound on how late a
  message can be, which is the regime the consensusless protocol is designed
  for.
* **Per-message CPU cost** — each node owns a single CPU that processes
  incoming messages sequentially, spending ``processing_time`` per message
  (modelling deserialization + signature verification + protocol logic).
  The CPU queue is what creates the leader bottleneck in the consensus-based
  baseline and the even load distribution in the broadcast-based protocol,
  the effect behind the paper's 1.5×–6× throughput gap.

Every send is one :meth:`Network.multicast` call — to one recipient
(``Node.send``), to every member (``Node.broadcast``, a broadcast layer's
all-to-all) — which is N messages drawn in recipient order; one message is
still two events, "deliver" then "process".

Byzantine *behaviour* is not modelled here: a Byzantine node is simply a
:class:`Node` subclass that sends whatever it likes (see
:mod:`repro.byzantine.behaviors` and the attack nodes in :mod:`repro.mp`).
The network delivers faithfully between benign pairs, which matches the
standard assumption of reliable authenticated channels.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import partial
from math import log
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import SeededRng
from repro.common.types import ProcessId
from repro.network.simulator import Event, Simulator


@dataclass
class NetworkConfig:
    """Tunable parameters of the network and node cost model.

    All times are in (simulated) seconds.  The defaults model a medium-area
    network of commodity machines: 0.5 ms base latency, 1 ms mean additional
    exponential delay, 5 µs of CPU work per received message (deserialization
    plus MAC check on an authenticated channel) and 100 µs per digital
    signature verification.

    Which messages pay the signature surcharge is decided by each node's
    :meth:`Node.processing_cost` override: PBFT votes and client requests
    carry signatures, whereas Bracha echo/ready messages only need channel
    authentication — an asymmetry that is one of the drivers of the
    throughput gap the paper reports (see DESIGN.md §2).
    """

    latency_base: float = 0.0005
    latency_mean: float = 0.001
    processing_time: float = 0.000005
    signature_verification_time: float = 0.0001
    seed: int = 0
    drop_probability: float = 0.0

    def validate(self) -> None:
        if self.latency_base < 0 or self.latency_mean < 0:
            raise ConfigurationError("latencies must be non-negative")
        if self.processing_time < 0:
            raise ConfigurationError("processing_time must be non-negative")
        if self.signature_verification_time < 0:
            raise ConfigurationError("signature_verification_time must be non-negative")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigurationError("drop_probability must lie in [0, 1)")


@dataclass
class NodeStats:
    """Per-node message and CPU accounting."""

    sent: int = 0
    received: int = 0
    processed: int = 0
    dropped: int = 0
    busy_time: float = 0.0


class Node(abc.ABC):
    """Base class for every protocol participant.

    Subclasses implement :meth:`on_message` (and optionally override
    :meth:`on_start`).  They send through :meth:`send` / :meth:`broadcast`
    and set timers with :meth:`set_timer`.  A node is attached to exactly one
    network.
    """

    def __init__(self, node_id: ProcessId) -> None:
        self.node_id = node_id
        self._network: Optional["Network"] = None
        self.stats = NodeStats()

    # -- wiring -------------------------------------------------------------------

    def attach(self, network: "Network") -> None:
        if self._network is not None:
            raise ConfigurationError(f"node {self.node_id} is already attached")
        self._network = network

    @property
    def network(self) -> "Network":
        if self._network is None:
            raise ConfigurationError(f"node {self.node_id} is not attached to a network")
        return self._network

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.network.simulator.now

    @property
    def peers(self) -> Tuple[ProcessId, ...]:
        """Identifiers of every node in the network, including this one."""
        return self.network.node_ids

    # -- behaviour hooks ------------------------------------------------------------

    def on_start(self) -> None:
        """Called once when the simulation starts.  Default: nothing."""

    def processing_cost(self, message: Any) -> Optional[float]:
        """CPU time this node spends processing ``message``.

        Return ``None`` to use the network's flat ``processing_time``.
        Protocol nodes override this to charge signature verification on
        messages that carry signatures (see :class:`NetworkConfig`).  Only
        the network this node is attached to asks, once per arriving
        message, so overrides read ``self._network.config`` directly.
        """
        return None

    @abc.abstractmethod
    def on_message(self, sender: ProcessId, message: Any) -> None:
        """Handle a message delivered from ``sender``."""

    # -- actions ----------------------------------------------------------------------

    def send(self, recipient: ProcessId, message: Any) -> None:
        """Send ``message`` to ``recipient`` over the (asynchronous) network."""
        # ``self.network`` raises when unattached; attached, skip its call.
        network = self._network if self._network is not None else self.network
        network.multicast(self.node_id, (recipient,), message)

    def broadcast(self, message: Any, include_self: bool = True) -> None:
        """Send ``message`` to every node (the all-to-all primitive)."""
        network = self.network
        recipients = network.node_ids
        if not include_self:
            recipients = tuple(peer for peer in recipients if peer != self.node_id)
        network.multicast(self.node_id, recipients, message)

    def set_timer(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to run after ``delay`` simulated seconds."""
        return self.network.simulator.schedule(delay, callback, label=label or f"timer@{self.node_id}")


class Network:
    """Connects nodes through the simulator and applies the cost model."""

    def __init__(self, simulator: Simulator, config: Optional[NetworkConfig] = None) -> None:
        self.simulator = simulator
        self.config = config or NetworkConfig()
        self.config.validate()
        self._rng = SeededRng(self.config.seed).fork("network")
        # The exponential link delay, drawn straight from the stream's
        # generator: ``multicast`` only draws under ``latency_mean > 0``, the
        # one thing ``SeededRng.exponential`` would check per message, and
        # computes ``random.expovariate``'s formula itself (the same float,
        # one frame fewer per message).
        self._uniform = self._rng._random.random
        self._nodes: Dict[ProcessId, Node] = {}
        self._node_ids: Tuple[ProcessId, ...] = ()
        self._cpu_free_at: Dict[ProcessId, float] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self._started = False

    # -- membership -----------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node.node_id in self._nodes:
            raise ConfigurationError(f"duplicate node id {node.node_id}")
        node.attach(self)
        self._nodes[node.node_id] = node
        self._node_ids = tuple(sorted(self._nodes))
        self._cpu_free_at[node.node_id] = 0.0

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        for node in nodes:
            self.add_node(node)

    @property
    def node_ids(self) -> Tuple[ProcessId, ...]:
        """Every member's identifier, sorted; rebuilt only by ``add_node``."""
        return self._node_ids

    def node(self, node_id: ProcessId) -> Node:
        return self._nodes[node_id]

    @property
    def nodes(self) -> Tuple[Node, ...]:
        return tuple(self._nodes[node_id] for node_id in self.node_ids)

    def __len__(self) -> int:
        return len(self._nodes)

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> None:
        """Invoke every node's ``on_start`` hook (idempotent)."""
        if self._started:
            return
        self._started = True
        for node_id in self.node_ids:
            self._nodes[node_id].on_start()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None,
            stop_when: Optional[Callable[[], bool]] = None) -> float:
        """Start all nodes (if needed) and drive the simulator."""
        self.start()
        return self.simulator.run(until=until, max_events=max_events, stop_when=stop_when)

    # -- transmission ------------------------------------------------------------------

    # One message is two events, "deliver" (link delay) then "process" (the
    # recipient's CPU queue).  Their labels are constants: the only reader,
    # ``Shard.checkpoint_blockers``, asks whether a label is a client
    # submission, never which message it is.

    def multicast(self, sender: ProcessId, recipients: Sequence[ProcessId], message: Any) -> None:
        """Queue ``message`` from ``sender`` to each of ``recipients``, in order.

        Per recipient: the drop draw, then (if kept) the latency draw.  An
        unknown recipient raises, counted as if sent one by one.
        """
        stats = self._nodes[sender].stats
        stats.sent += len(recipients)
        config = self.config
        drop = config.drop_probability
        mean = config.latency_mean
        schedule = self.simulator.schedule
        for recipient in recipients:
            node = self._nodes.get(recipient)
            if node is None:
                stats.sent -= len(recipients) - 1 - recipients.index(recipient)
                raise SimulationError(f"message sent to unknown node {recipient}")
            self.messages_sent += 1
            if drop and self._rng.maybe(drop):
                self.messages_dropped += 1
                node.stats.dropped += 1
                continue
            latency = config.latency_base
            if mean > 0:
                latency += -log(1.0 - self._uniform()) / (1.0 / mean)
            schedule(latency, partial(self._arrive, node, sender, message), "deliver")

    def _arrive(self, node: Node, sender: ProcessId, message: Any) -> None:
        """Message arrived at the recipient's NIC; queue it on the CPU."""
        stats = node.stats
        stats.received += 1
        simulator = self.simulator
        cost = node.processing_cost(message)
        if cost is None:
            cost = self.config.processing_time
        cpu_free_at = self._cpu_free_at
        recipient = node.node_id
        # The engine's clock, read past its property: one call per message.
        finish = max(simulator._now, cpu_free_at[recipient]) + cost
        cpu_free_at[recipient] = finish
        stats.busy_time += cost
        self.messages_delivered += 1
        simulator.schedule_at(finish, partial(self._process, node, sender, message), "process")

    @staticmethod
    def _process(node: Node, sender: ProcessId, message: Any) -> None:
        node.stats.processed += 1
        node.on_message(sender, message)

    # -- checkpointing -----------------------------------------------------------------

    def capture_state(self) -> Dict[str, Any]:
        """Plain-data snapshot of the network's own mutable state.

        Everything here is plain picklable data: the RNG position (so
        post-checkpoint latency draws replay identically), the per-node CPU
        horizon, and the delivery counters.  Node membership and config are
        rebuilt from the shard spec, not captured.
        """
        return {
            "rng": self._rng._random.getstate(),
            "cpu_free_at": dict(self._cpu_free_at),
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Install a :meth:`capture_state` snapshot onto a freshly built twin."""
        version, internal, gauss = state["rng"]
        self._rng._random.setstate((version, tuple(internal), gauss))
        self._cpu_free_at.update(state["cpu_free_at"])
        self.messages_sent = state["messages_sent"]
        self.messages_delivered = state["messages_delivered"]
        self.messages_dropped = state["messages_dropped"]

    # -- metrics -----------------------------------------------------------------------

    def cpu_utilisation(self, node_id: ProcessId) -> float:
        """Fraction of virtual time the node's CPU has been busy so far."""
        if self.simulator.now == 0:
            return 0.0
        return min(1.0, self._nodes[node_id].stats.busy_time / self.simulator.now)

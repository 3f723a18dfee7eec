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

Links are the paper's reliable authenticated channels: every message sent is
delivered, exactly once, after its drawn delay.  The secure broadcasts above
rely on that, since their Agreement property does not survive a message lost
between correct processes.  Omission is a Byzantine fault, within ``f``: a
silent replica (:class:`repro.mp.attackers.SilentNode`) or a settlement
replica that drops its vouchers or acks
(:class:`repro.byzantine.behaviors.DropBehavior`).

Every send is one :meth:`Network.multicast` call — to one recipient
(``Node.send``), to every member (``Node.broadcast``, a broadcast layer's
all-to-all) — which is N messages drawn in recipient order.  One message is
two handle-less events of a bound method and its ``(node, sender, message)``
arguments: no :class:`Event` and no :func:`functools.partial` per message,
since nothing cancels a message.  So one message costs two engine calls, one
per hop, and one of them is shared by the whole fan-out:

* "deliver": ``multicast`` draws every recipient's latency first, then hands
  the ``(time, args)`` pairs to one
  :meth:`Simulator.post_many <repro.network.simulator.Simulator.post_many>`,
  which numbers them in recipient order — the sequence numbers N single
  posts would have taken.
* "process": ``_arrive`` charges the recipient's CPU queue and makes one
  :meth:`Simulator.post <repro.network.simulator.Simulator.post>`.

Byzantine *behaviour* is not modelled here: a Byzantine node is simply a
:class:`Node` subclass that sends whatever it likes (see
:mod:`repro.byzantine.behaviors` and the attack nodes in :mod:`repro.mp`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from math import inf, log
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
    throughput gap the paper reports.

    Links are reliable: omission is Byzantine, within ``f`` (``SilentNode``,
    ``DropBehavior``).
    """

    latency_base: float = 0.0005
    latency_mean: float = 0.001
    processing_time: float = 0.000005
    signature_verification_time: float = 0.0001
    seed: int = 0

    def validate(self) -> None:
        # ``0 <= x < inf`` is false for NaN too, which ``x < 0`` would let through.
        for name in ("latency_base", "latency_mean", "processing_time", "signature_verification_time"):
            value = getattr(self, name)
            if not 0.0 <= value < inf:
                raise ConfigurationError(f"{name} must be finite and non-negative, not {value}")


@dataclass
class NodeStats:
    """Per-node message and CPU accounting."""

    sent: int = 0
    received: int = 0
    processed: int = 0
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

    def set_timer(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run after ``delay`` simulated seconds."""
        return self.network.simulator.schedule(delay, callback)


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
    # recipient's CPU queue), both queued without a handle: the entry carries
    # the bound method and its ``(node, sender, message)`` arguments, so a
    # message allocates no ``Event`` and no ``partial``.

    def multicast(self, sender: ProcessId, recipients: Sequence[ProcessId], message: Any) -> None:
        """Queue ``message`` from ``sender`` to each of ``recipients``, in order.

        One latency draw per recipient; the deliveries go to the engine in
        one ``post_many``.  An unknown recipient raises, counted as if sent
        one by one: the deliveries drawn before it are queued first.
        """
        stats = self._nodes[sender].stats
        stats.sent += len(recipients)
        self.messages_sent += len(recipients)
        config = self.config
        base = config.latency_base
        mean = config.latency_mean
        # ``random.expovariate(1 / mean)``'s formula, the divisor computed once.
        rate = 1.0 / mean if mean > 0 else 0.0
        uniform = self._uniform
        find = self._nodes.get
        simulator = self.simulator
        # The engine's clock, read past its property; no event runs during
        # the fan-out, so it holds for all of it.
        now = simulator._now
        deliveries = []
        for recipient in recipients:
            node = find(recipient)
            if node is None:
                unsent = len(recipients) - recipients.index(recipient)
                stats.sent -= unsent - 1
                self.messages_sent -= unsent
                simulator.post_many(self._arrive, deliveries)
                raise SimulationError(f"message sent to unknown node {recipient}")
            latency = base
            if rate:
                latency += -log(1.0 - uniform()) / rate
            deliveries.append((now + latency, (node, sender, message)))
        simulator.post_many(self._arrive, deliveries)

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
        # The CPU starts on the message when it is free and the message is
        # here; the engine's clock is read past its property.
        start = cpu_free_at[recipient]
        if simulator._now > start:
            start = simulator._now
        finish = start + cost
        cpu_free_at[recipient] = finish
        stats.busy_time += cost
        self.messages_delivered += 1
        simulator.post(finish, self._process, (node, sender, message))

    @staticmethod
    def _process(node: Node, sender: ProcessId, message: Any) -> None:
        node.stats.processed += 1
        node.on_message(sender, message)

    # -- metrics -----------------------------------------------------------------------

    def cpu_utilisation(self, node_id: ProcessId) -> float:
        """Fraction of virtual time the node's CPU has been busy so far."""
        if self.simulator.now == 0:
            return 0.0
        return min(1.0, self._nodes[node_id].stats.busy_time / self.simulator.now)

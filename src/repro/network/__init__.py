"""Discrete-event simulation of an asynchronous message-passing network.

The simulator is the substitute for the paper's real deployment: protocols
run unchanged on top of it, time is simulated, and per-node CPU costs plus
per-link latencies (:class:`NetworkConfig`) determine throughput and latency.
Both the consensusless protocol and the PBFT baseline run on this same
substrate, so relative comparisons are meaningful.
"""

from repro.network.simulator import Event, Simulator
from repro.network.node import Network, NetworkConfig, Node, NodeStats

__all__ = [
    "Event",
    "Network",
    "NetworkConfig",
    "Node",
    "NodeStats",
    "Simulator",
]

"""Discrete-event simulation of an asynchronous message-passing network.

The simulator is the substitute for the paper's real deployment: protocols
run unchanged on top of it, time is simulated, and per-node CPU costs plus
per-link latencies (:class:`~repro.network.node.NetworkConfig`) determine
throughput and latency.  Both the consensusless protocol and the PBFT
baseline run on this same substrate, so relative comparisons are meaningful.

* :mod:`repro.network.simulator` — the event queue and simulated clock.
* :mod:`repro.network.node` — nodes, links and the network that multicasts
  between them.

The package re-exports nothing: import from the defining module.
"""

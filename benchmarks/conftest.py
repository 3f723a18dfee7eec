"""Benchmark configuration.

Each benchmark runs its simulated experiment once per pytest-benchmark round
(``rounds=1``): the numbers of interest are *simulated* throughput and
latency, which are deterministic given the seed, while pytest-benchmark's
wall-clock timing simply documents how expensive the simulation itself is.
The measured simulated metrics are attached to ``benchmark.extra_info`` so
they appear in the benchmark report.
"""

import pytest

from repro.network.node import NetworkConfig


@pytest.fixture
def bench_network() -> NetworkConfig:
    """The network cost model used by all benchmarks (see ``NetworkConfig``)."""
    return NetworkConfig(seed=7)

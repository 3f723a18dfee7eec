"""Shared fixtures for the test suite.

Simulation-based tests deliberately use small system sizes and workloads so
the whole suite stays fast; the example scripts are the place for
paper-scale runs (``examples/throughput_comparison.py --full``).
"""

from __future__ import annotations

import pytest

from repro.common.rng import SeededRng
from repro.common.types import OwnershipMap
from repro.network.node import NetworkConfig


@pytest.fixture
def rng() -> SeededRng:
    """A deterministic RNG for tests that need randomness."""
    return SeededRng(1234)


@pytest.fixture
def two_accounts() -> OwnershipMap:
    """Two single-owner accounts: alice (process 0) and bob (process 1)."""
    return OwnershipMap.single_owner({"alice": 0, "bob": 1})


@pytest.fixture
def three_accounts() -> OwnershipMap:
    """Three single-owner accounts owned by processes 0, 1, 2."""
    return OwnershipMap.single_owner({"a": 0, "b": 1, "c": 2})


@pytest.fixture
def shared_account_map() -> OwnershipMap:
    """A 2-shared account plus a singleton account (sharing degree 2)."""
    return OwnershipMap({"joint": (0, 1), "solo": (2,)})


@pytest.fixture
def fast_network() -> NetworkConfig:
    """A low-latency, cheap-CPU network config that keeps tests snappy."""
    return NetworkConfig(
        latency_base=0.0002,
        latency_mean=0.0003,
        processing_time=0.000002,
        signature_verification_time=0.00002,
        seed=42,
    )

"""Shared building blocks used by every other subpackage.

The :mod:`repro.common` package contains the domain vocabulary of the
reproduction (accounts, transfers, process identifiers), the exception
hierarchy, and the seeded random-number helpers that keep every simulation in
the repository deterministic.
"""

from repro.common.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    SpecificationViolation,
)
from repro.common.rng import SeededRng, ZipfSampler, derive_seed
from repro.common.types import (
    AccountId,
    Amount,
    OwnershipMap,
    ProcessId,
    Transfer,
    TransferId,
    TransferStatus,
)

__all__ = [
    "AccountId",
    "Amount",
    "ConfigurationError",
    "OwnershipMap",
    "ProcessId",
    "ReproError",
    "SeededRng",
    "SimulationError",
    "SpecificationViolation",
    "Transfer",
    "TransferId",
    "TransferStatus",
    "ZipfSampler",
    "derive_seed",
]

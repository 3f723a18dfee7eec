"""Exception hierarchy for the reproduction.

Every exception raised by the library derives from :class:`ReproError`, so
applications embedding the library can catch a single base class.  The
sub-classes distinguish the three broad failure categories that matter in
practice:

* configuration mistakes made by the caller (:class:`ConfigurationError`),
* violations of the asset-transfer specification detected by the checkers
  (:class:`SpecificationViolation`), and
* internal simulation errors (:class:`SimulationError`).

Domain-level conditions that the paper models as *responses* rather than
errors (a transfer failing because of insufficient balance, or because the
caller does not own the source account) are reported as ``False``
return values, mirroring the sequential specification in Section 2.2 of the
paper.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """The caller supplied an invalid configuration.

    Examples: an ownership map naming an unknown account, a negative initial
    balance, a network of zero processes, or a Byzantine fraction that leaves
    fewer than ``2f + 1`` correct processes for a quorum-based protocol.
    """


class SpecificationViolation(ReproError):
    """A history violated the asset-transfer specification.

    Raised by the linearizability checker and the Byzantine asset-transfer
    checker when no legal sequential witness exists for an observed history.
    A raised :class:`SpecificationViolation` in a test means the algorithm
    under test is incorrect (or the checker found a genuine double-spend).
    """


class SimulationError(ReproError):
    """The simulation reached an internal inconsistency.

    This indicates a bug in the simulator or a protocol driving it outside of
    its supported envelope (for example scheduling an event in the past).
    """

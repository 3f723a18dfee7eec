"""Merged outcome of a cluster run.

:class:`ClusterResult` aggregates the per-shard
:class:`~repro.mp.system.SystemResult` objects into cluster-wide figures and
deliberately mirrors the single-system result API (``committed_count``,
``throughput``, ``latencies``, ``messages_per_commit``, ...) so the existing
metrics layer (:func:`repro.eval.metrics.summarize_result`) consumes either
without special cases.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.common.types import Amount
from repro.mp.consensusless_transfer import TransferRecord
from repro.mp.system import SystemResult
from repro.obs.tracing import write_trace_events
from repro.spec.byzantine_spec import CheckReport


@dataclass
class ClusterResult:
    """Cluster-wide aggregate over independent shard results."""

    shard_results: List[SystemResult] = field(default_factory=list)
    duration: float = 0.0
    events_processed: int = 0

    # Canonical run capture (filled in by ``ClusterSystem.run``): everything
    # the cross-backend equivalence harness compares byte-for-byte.
    # ``balances`` maps shard -> replica -> account -> amount (every replica's
    # full ledger view, not just replica 0); ``committed_stream`` /
    # ``settlement_stream`` are the deterministic sequence fingerprints;
    # ``audit`` is the supply audit's verdicts and figures;
    # ``per_shard_events`` carries per-shard simulator event counts.
    balances: Optional[Dict[str, Dict[str, Dict[str, Amount]]]] = None
    committed_stream: Optional[List[tuple]] = None
    settlement_stream: Optional[List[tuple]] = None
    retirement_stream: Optional[List[tuple]] = None
    audit: Optional[Dict[str, object]] = None
    per_shard_events: Optional[List[int]] = None
    # Settlement-lifecycle counters: outbound records retired behind the
    # compaction watermarks, and those still resident in the ledgers.  Part
    # of the fingerprint, so a backend that compacted differently can never
    # fingerprint equal.
    retired_records: Optional[int] = None
    resident_settlement_records: Optional[int] = None
    # Observability capture (``ClusterSystem._capture_telemetry``): the
    # telemetry section carries merged metric snapshots (mode, driver,
    # per-shard, cluster totals, span aggregates); ``trace`` holds the raw
    # chrome://tracing events when the run traced (telemetry="full").
    # Volatile by nature — wall-clock figures differ on every run — so the
    # section rides the payload for inspection but never enters the hash.
    telemetry: Optional[Dict[str, object]] = None
    trace: Optional[List[dict]] = None

    # -- SystemResult-compatible surface ------------------------------------------------------

    @property
    def committed(self) -> List[TransferRecord]:
        merged = [record for result in self.shard_results for record in result.committed]
        merged.sort(key=lambda record: (record.completed_at, record.transfer.issuer))
        return merged

    @property
    def rejected(self) -> List[TransferRecord]:
        return [record for result in self.shard_results for record in result.rejected]

    @property
    def committed_count(self) -> int:
        return sum(result.committed_count for result in self.shard_results)

    @property
    def messages_sent(self) -> int:
        return sum(result.messages_sent for result in self.shard_results)

    @property
    def throughput(self) -> float:
        """Committed transfers per simulated second, cluster-wide."""
        if self.duration <= 0:
            return 0.0
        return self.committed_count / self.duration

    @property
    def latencies(self) -> List[float]:
        return [
            record.latency
            for result in self.shard_results
            for record in result.committed
            if record.success
        ]

    @property
    def average_latency(self) -> float:
        values = self.latencies
        return sum(values) / len(values) if values else 0.0

    @property
    def messages_per_commit(self) -> float:
        if self.committed_count == 0:
            return 0.0
        return self.messages_sent / self.committed_count

    # -- cluster-specific views ---------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shard_results)

    def per_shard_committed(self) -> List[int]:
        return [result.committed_count for result in self.shard_results]

    def per_shard_throughput(self) -> List[float]:
        if self.duration <= 0:
            return [0.0] * self.shard_count
        return [result.committed_count / self.duration for result in self.shard_results]

    def load_imbalance(self) -> float:
        """max/mean committed-per-shard ratio (1.0 = perfectly balanced)."""
        counts = self.per_shard_committed()
        if not counts or sum(counts) == 0:
            return 0.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean

    # -- canonical serialisation --------------------------------------------------------------

    def fingerprint_payload(self) -> Dict[str, object]:
        """The canonical, JSON-serialisable content of this run.

        Raises if the run capture is missing — a fingerprint over a result
        that never went through ``ClusterSystem.run`` would silently compare
        empty shells equal, which is exactly the failure mode the equivalence
        harness exists to rule out.
        """
        if self.balances is None or self.committed_stream is None:
            raise ConfigurationError(
                "this ClusterResult was not captured by ClusterSystem.run(); "
                "there is nothing meaningful to fingerprint"
            )
        return {
            "balances": self.balances,
            "committed": [list(entry) for entry in self.committed_stream],
            "settlement": [list(entry) for entry in self.settlement_stream or []],
            "retirements": [list(entry) for entry in self.retirement_stream or []],
            "audit": self.audit,
            "duration": self.duration,
            "events_processed": self.events_processed,
            "per_shard_events": self.per_shard_events,
            "messages_sent": self.messages_sent,
            "committed_count": self.committed_count,
            "rejected_count": len(self.rejected),
            "retired_records": self.retired_records,
            "resident_settlement_records": self.resident_settlement_records,
            "telemetry": self.telemetry,
        }

    # Payload sections that describe *how the run felt* rather than what it
    # computed: wall-clock phase timings, counter volumes, span aggregates.
    # Excluded from the hash (the telemetry invariant: tracing on, off or
    # partial never changes results) *and* from payload-level equivalence
    # comparisons (:meth:`comparable_payload`) — wall time legitimately
    # differs between backends, runs and telemetry modes.
    VOLATILE_SECTIONS = ("telemetry",)

    def comparable_payload(self) -> Dict[str, object]:
        """The payload minus its volatile sections.

        What payload-level equality means across backends, pauses and
        telemetry modes: everything deterministic, with only the wall-clock
        telemetry stripped.
        """
        return {
            key: value
            for key, value in self.fingerprint_payload().items()
            if key not in self.VOLATILE_SECTIONS
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON encoding of the run.

        Two runs fingerprint equal iff every per-account balance on every
        replica, the committed and settlement streams (with completion
        times), the supply-audit verdicts and the event/message counts are
        byte-for-byte identical — the contract the execution backends must
        uphold: parallelism may never change what the protocol did.  The
        volatile sections (:attr:`VOLATILE_SECTIONS` — the telemetry
        capture) are excluded: observability is measurement, never
        content, so fingerprints are identical with telemetry off, on or
        partial (the telemetry invariant).
        """
        canonical = json.dumps(self.comparable_payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def export_trace(self, path) -> int:
        """Write the run's chrome://tracing file; returns the event count.

        The file is a Chrome ``trace_event`` JSON array with one event per
        line — loadable in chrome://tracing and Perfetto, greppable line by
        line.  Requires a traced run (``telemetry="full"``).
        """
        if self.trace is None:
            raise ConfigurationError(
                "this run recorded no trace; construct the ClusterSystem "
                "with telemetry='full' to trace it"
            )
        write_trace_events(path, self.trace)
        return len(self.trace)


@dataclass(frozen=True)
class SupplyAudit:
    """The cluster-level conservation audit across both ledger views.

    Cross-shard money is recorded twice: the source shard's ledger keeps the
    *unretired* outbound credit in ``x{d}:a`` accounts (the settlement
    lifecycle compacts fully-acknowledged records behind the watermark and
    reports them as ``retired``), and the destination shard's ledger keeps
    the cumulative *inbound* mint as a negative balance on ``settle:{s}:{p}``
    provision accounts.  Netting the views yields the accounting identity the
    audit asserts:

    ``local + outbound - (minted - retired) == initial_supply``  (at every
    instant)

    i.e. the unretired outbound records net against the unretired mints —
    because every shard-local application (a transfer, a cross-shard debit
    into ``x{d}:a``, a mint from ``settle:{s}:{p}``, or a retirement, which
    removes an outbound credit *and* folds its debit into the source
    account's baseline) conserves the identity in its own ledger.
    ``in_flight = outbound - (minted - retired)`` is money certified at the
    source but not yet (or never, under faults) minted at the destination;
    at quiescence with correct replicas it is zero and the local balances
    alone carry the whole supply.  ``retired`` can never exceed ``minted``
    (:attr:`retirement_backed`): retirement requires a destination ack
    quorum, and any quorum contains a correct replica that only acknowledges
    what it actually minted.
    """

    initial_supply: Amount
    local: Amount
    outbound: Amount
    minted: Amount
    relay_delivered: Amount
    retired: Amount = 0

    @property
    def in_flight(self) -> Amount:
        """Outbound credits not yet minted at their destination shard.

        ``outbound`` only holds the unretired records, so the cumulative
        outbound is ``outbound + retired`` and in-flight money is that minus
        everything minted.
        """
        return self.outbound + self.retired - self.minted

    @property
    def total(self) -> Amount:
        """The netted cluster supply: ``local + in_flight``."""
        return self.local + self.in_flight

    @property
    def conserved(self) -> bool:
        return self.total == self.initial_supply

    @property
    def ledger_matches_relay(self) -> bool:
        """Minted balances must equal what the relays actually certified."""
        return self.minted == self.relay_delivered

    @property
    def retirement_backed(self) -> bool:
        """No unsettled record was ever retired (``retired <= minted``)."""
        return 0 <= self.retired <= self.minted

    @property
    def fully_settled(self) -> bool:
        """True once every outbound credit has been minted (quiescence)."""
        return self.in_flight == 0

    @property
    def fully_retired(self) -> bool:
        """True once every minted credit's outbound record is compacted."""
        return self.retired == self.minted and self.outbound == 0

    @property
    def ok(self) -> bool:
        return self.conserved and self.ledger_matches_relay and self.retirement_backed

    @property
    def violations(self) -> List[str]:
        problems: List[str] = []
        if not self.conserved:
            problems.append(
                f"conservation violated: local {self.local} + in-flight {self.in_flight} "
                f"= {self.total} != initial supply {self.initial_supply}"
            )
        if not self.ledger_matches_relay:
            problems.append(
                f"mint mismatch: ledgers minted {self.minted} but relays "
                f"delivered certificates for {self.relay_delivered}"
            )
        if not self.retirement_backed:
            problems.append(
                f"retirement overran settlement: retired {self.retired} "
                f"exceeds minted {self.minted}"
            )
        return problems


@dataclass
class ClusterCheckReport:
    """Per-shard Definition 1 reports plus the cluster-wide verdict.

    The cluster verdict is the conjunction of the per-shard Definition 1
    checks (shards share no accounts) *and* the cross-ledger
    :class:`SupplyAudit`, which is what makes settled cross-shard money
    auditable: the per-shard checker sees each mint against its certificate's
    provision, the audit nets outbound credits against minted ones.
    """

    shard_reports: Dict[int, CheckReport] = field(default_factory=dict)
    conservation: Optional[SupplyAudit] = None

    @property
    def ok(self) -> bool:
        shards_ok = all(report.ok for report in self.shard_reports.values())
        return shards_ok and (self.conservation is None or self.conservation.ok)

    @property
    def violations(self) -> List[str]:
        problems = [
            f"shard {shard}: {violation}"
            for shard, report in sorted(self.shard_reports.items())
            for violation in report.violations
        ]
        if self.conservation is not None:
            problems.extend(f"cluster: {v}" for v in self.conservation.violations)
        return problems

    @property
    def checked_transfers(self) -> int:
        return sum(report.checked_transfers for report in self.shard_reports.values())

    def __bool__(self) -> bool:
        return self.ok

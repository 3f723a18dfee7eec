"""Span-based tracing with a Chrome ``trace_event`` exporter.

A :class:`Tracer` collects :class:`TraceSpan` records around the cluster's
hot phases — ``shard.advance``, the barrier settlement exchange, the
process pool's pipe send/receive legs — carrying **both** clocks: wall time (where the
machine's seconds went, the axis the exported trace draws) and simulated
time (where the modelled run was when the phase executed, carried in each
event's ``args``).

The exporter writes the Trace Event Format's JSON-array flavour with one
event object per line, so the same file loads in ``chrome://tracing`` /
`Perfetto <https://ui.perfetto.dev>`_ *and* streams line-by-line like JSONL
(:func:`validate_trace_file` checks it both ways).  Tracing follows the
telemetry invariant: spans only read ``perf_counter`` and append to a list,
so a run with tracing on fingerprints identically to one with tracing off.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.common.errors import ConfigurationError

#: Keys every exported trace event must carry (the schema
#: :func:`validate_trace_file` checks).  ``ph``/``ts``/``pid``/``tid`` are
#: the Trace Event Format's required fields; ``name`` is required for the
#: event kinds we emit.
TRACE_EVENT_REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")


class TraceSpan:
    """One timed phase: wall-clock bounds plus the simulated-time window."""

    __slots__ = ("name", "cat", "tid", "wall_start", "wall_dur", "sim_start", "sim_end", "args")

    def __init__(
        self,
        name: str,
        cat: str = "phase",
        tid: int = 0,
        wall_start: float = 0.0,
        wall_dur: float = 0.0,
        sim_start: Optional[float] = None,
        sim_end: Optional[float] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.tid = tid
        self.wall_start = wall_start
        self.wall_dur = wall_dur
        self.sim_start = sim_start
        self.sim_end = sim_end
        self.args = args or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceSpan({self.name!r}, {self.wall_dur * 1e3:.3f}ms)"


class Tracer:
    """Collects spans; ``span()`` wraps a phase with both clocks.

    Appending is the only mutation and ordering never matters — the
    exporter sorts by start time.
    """

    __slots__ = ("spans", "origin")

    def __init__(self) -> None:
        self.spans: List[TraceSpan] = []
        # Wall origin of the trace: every event's ``ts`` is relative to
        # this, keeping exported timestamps small and run-relative.
        self.origin = time.perf_counter()

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "phase",
        tid: int = 0,
        sim_start: Optional[float] = None,
        **args: object,
    ) -> Iterator[TraceSpan]:
        """Time a phase; the yielded span may be annotated inside the block
        (``span.sim_end = ...``) before it is recorded on exit."""
        record = TraceSpan(
            name,
            cat=cat,
            tid=tid,
            wall_start=time.perf_counter() - self.origin,
            sim_start=sim_start,
            args=dict(args),
        )
        try:
            yield record
        finally:
            record.wall_dur = (time.perf_counter() - self.origin) - record.wall_start
            self.spans.append(record)

    # -- aggregation --------------------------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name totals: count and wall seconds (for summaries)."""
        totals: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            entry = totals.setdefault(span.name, {"count": 0, "wall_s": 0.0})
            entry["count"] += 1
            entry["wall_s"] += span.wall_dur
        return totals

    # -- export -------------------------------------------------------------------------------

    def trace_events(self, pid: int = 0) -> List[Dict[str, object]]:
        """The spans as Trace Event Format dicts (complete ``"X"`` events).

        Wall time is the drawn axis (microseconds since the tracer's
        origin); the simulated-time window rides along in ``args`` so a
        span can be read against the modelled clock in the trace viewer.
        """
        lanes = sorted({span.tid for span in self.spans})
        events: List[Dict[str, object]] = [
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": "cluster-driver"},
            }
        ]
        for tid in lanes:
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": "scheduler" if tid == 0 else f"lane-{tid}"},
                }
            )
        for span in sorted(self.spans, key=lambda s: (s.wall_start, s.tid, s.name)):
            args: Dict[str, object] = dict(span.args)
            if span.sim_start is not None:
                args["sim_start"] = span.sim_start
            if span.sim_end is not None:
                args["sim_end"] = span.sim_end
            events.append(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "X",
                    "ts": round(span.wall_start * 1e6, 3),
                    "dur": round(span.wall_dur * 1e6, 3),
                    "pid": pid,
                    "tid": span.tid,
                    "args": args,
                }
            )
        return events

    def export(self, path: str, pid: int = 0) -> int:
        """Write the Chrome-loadable trace file; returns the event count."""
        return write_trace_events(path, self.trace_events(pid=pid))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer(spans={len(self.spans)})"


def write_trace_events(path: str, events: List[Dict[str, object]]) -> int:
    """Write events as a JSON array with one event object per line.

    The file is simultaneously a valid Trace Event Format array (loadable in
    ``chrome://tracing``/Perfetto) and line-parseable: every event sits alone
    on its line, so tooling can stream it JSONL-style by stripping the
    array punctuation (:func:`validate_trace_file` does both).
    """
    lines = ["["]
    for index, event in enumerate(events):
        comma = "," if index < len(events) - 1 else ""
        lines.append(json.dumps(event, sort_keys=True, separators=(",", ":")) + comma)
    lines.append("]")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return len(events)


def validate_trace_file(path: str) -> int:
    """Validate an exported trace against the trace_event schema.

    Checks both readings of the file: as one JSON array (what the trace
    viewers load) and line-by-line (the JSONL-ish contract — one event
    object per line).  Every event must carry the
    required keys, a known phase, and numeric non-negative timestamps;
    complete (``"X"``) events additionally need a numeric ``dur``.  Returns
    the number of validated events; raises :class:`ConfigurationError` on
    the first violation.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        events = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"trace file {path} is not valid JSON: {error}")
    if not isinstance(events, list) or not events:
        raise ConfigurationError(f"trace file {path} must be a non-empty JSON array")
    # The line-wise reading: one event per line between the brackets.
    lines = [line for line in text.splitlines() if line.strip()]
    if lines[0].strip() != "[" or lines[-1].strip() != "]":
        raise ConfigurationError(
            f"trace file {path} must open with '[' and close with ']' on their own lines"
        )
    body = lines[1:-1]
    if len(body) != len(events):
        raise ConfigurationError(
            f"trace file {path} must hold one event per line "
            f"({len(events)} events, {len(body)} lines)"
        )
    for line in body:
        json.loads(line.rstrip(","))  # every line parses on its own
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ConfigurationError(f"trace event {index} is not an object")
        for key in TRACE_EVENT_REQUIRED_KEYS:
            if key not in event:
                raise ConfigurationError(f"trace event {index} is missing {key!r}")
        if event["ph"] not in ("X", "M", "B", "E", "i", "C"):
            raise ConfigurationError(
                f"trace event {index} has unknown phase {event['ph']!r}"
            )
        if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
            raise ConfigurationError(f"trace event {index} has invalid ts")
        if event["ph"] == "X" and not isinstance(event.get("dur"), (int, float)):
            raise ConfigurationError(f"trace event {index} (complete) has no dur")
    return len(events)

"""Unit tests for the span tracer and the Chrome trace_event exporter.

The exported file has a dual contract — a valid Trace Event Format JSON
array (what chrome://tracing and Perfetto load) *and* one event object per
line (the greppable JSONL-ish reading) — so both
readings, plus the validator's rejections, are pinned here.
"""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.obs import (
    NULL_TRACER,
    TRACE_EVENT_REQUIRED_KEYS,
    Tracer,
    validate_trace_file,
    write_trace_events,
)


class TestSpans:
    def test_span_times_the_block_and_records_on_exit(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert span.name == "work"
        assert span.wall_dur >= 0.0

    def test_span_is_annotatable_inside_the_block(self):
        tracer = Tracer()
        with tracer.span("advance", sim_start=0.25, shard=3) as span:
            span.sim_end = 0.5
        span = tracer.spans[0]
        assert span.sim_start == 0.25
        assert span.sim_end == 0.5
        assert span.args == {"shard": 3}

    def test_span_records_even_when_the_block_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("phase failed")
        assert [span.name for span in tracer.spans] == ["boom"]

    def test_the_null_tracer_yields_an_annotatable_span_and_keeps_none(self):
        with NULL_TRACER.span("advance", cat="shard", tid=2, sim_start=0.25, shard=1) as span:
            span.sim_end = 0.5
        assert (span.name, span.cat, span.tid, span.sim_start) == ("advance", "shard", 2, 0.25)
        assert not hasattr(NULL_TRACER, "spans") and not hasattr(NULL_TRACER, "__dict__")

    def test_aggregate_totals_per_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("a"):
                pass
        with tracer.span("b"):
            pass
        totals = tracer.aggregate()
        assert totals["a"]["count"] == 3
        assert totals["b"]["count"] == 1
        assert totals["a"]["wall_s"] >= 0.0


class TestTraceEvents:
    def _traced(self):
        tracer = Tracer()
        with tracer.span("phase.advance", sim_start=0.0, tid=0) as span:
            span.sim_end = 0.005
        with tracer.span("shard.advance", cat="shard", tid=2):
            pass
        return tracer

    def test_events_carry_metadata_then_sorted_complete_events(self):
        events = self._traced().trace_events()
        metadata = [event for event in events if event["ph"] == "M"]
        complete = [event for event in events if event["ph"] == "X"]
        assert {event["name"] for event in metadata} == {"process_name", "thread_name"}
        names = {event["args"]["name"] for event in metadata}
        assert "cluster-driver" in names and "scheduler" in names and "lane-2" in names
        assert [event["ts"] for event in complete] == sorted(
            event["ts"] for event in complete
        )
        for event in complete:
            for key in TRACE_EVENT_REQUIRED_KEYS:
                assert key in event
            assert "dur" in event

    def test_sim_times_ride_in_args(self):
        events = self._traced().trace_events()
        advance = next(e for e in events if e["name"] == "phase.advance")
        assert advance["args"]["sim_start"] == 0.0
        assert advance["args"]["sim_end"] == 0.005

    def test_export_roundtrips_through_the_validator(self, tmp_path):
        path = tmp_path / "trace.json"
        count = self._traced().export(str(path))
        assert validate_trace_file(str(path)) == count

    def test_file_is_one_event_per_line_and_loads_as_json(self, tmp_path):
        path = tmp_path / "trace.json"
        self._traced().export(str(path))
        text = path.read_text()
        events = json.loads(text)
        lines = [line for line in text.splitlines() if line.strip()]
        assert lines[0] == "[" and lines[-1] == "]"
        assert len(lines) - 2 == len(events)
        for line in lines[1:-1]:
            json.loads(line.rstrip(","))


class TestValidatorRejections:
    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            validate_trace_file(str(path))

    def test_rejects_empty_array(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(ConfigurationError, match="non-empty"):
            validate_trace_file(str(path))

    def test_rejects_missing_required_key(self, tmp_path):
        path = tmp_path / "missing.json"
        write_trace_events(str(path), [{"name": "x", "ph": "X", "ts": 0, "pid": 0}])
        with pytest.raises(ConfigurationError, match="missing 'tid'"):
            validate_trace_file(str(path))

    def test_rejects_unknown_phase(self, tmp_path):
        path = tmp_path / "phase.json"
        write_trace_events(
            str(path), [{"name": "x", "ph": "Z", "ts": 0, "pid": 0, "tid": 0}]
        )
        with pytest.raises(ConfigurationError, match="unknown phase"):
            validate_trace_file(str(path))

    def test_rejects_complete_event_without_duration(self, tmp_path):
        path = tmp_path / "nodur.json"
        write_trace_events(
            str(path), [{"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0}]
        )
        with pytest.raises(ConfigurationError, match="no dur"):
            validate_trace_file(str(path))

    def test_rejects_compact_single_line_array(self, tmp_path):
        """A semantically fine but single-line file breaks the one-event-per-
        line contract the validator enforces alongside the JSON reading."""
        path = tmp_path / "compact.json"
        path.write_text(
            json.dumps([{"name": "x", "ph": "M", "ts": 0, "pid": 0, "tid": 0}])
        )
        with pytest.raises(ConfigurationError):
            validate_trace_file(str(path))

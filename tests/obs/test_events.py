"""Tests for the typed operational event journal (repro.obs.events)."""

import pytest

from repro.obs.events import EVENT_TYPES, EventLog


class TestEmit:
    def test_emit_stamps_ts_type_pid_and_attrs(self):
        log = EventLog()
        rec = log.emit("shed", tenant="gold", depth=7)
        assert rec["type"] == "shed"
        assert rec["tenant"] == "gold" and rec["depth"] == 7
        assert isinstance(rec["ts"], int) and rec["ts"] > 0
        assert isinstance(rec["pid"], int)
        assert log.events() == [rec]

    def test_timestamps_are_monotonic(self):
        log = EventLog()
        records = [log.emit("shed") for _ in range(10)]
        ts = [r["ts"] for r in records]
        assert ts == sorted(ts)

    def test_unknown_type_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event type"):
            log.emit("reactor_meltdown")
        assert len(log) == 0

    def test_every_declared_type_accepted(self):
        log = EventLog()
        for etype in sorted(EVENT_TYPES):
            log.emit(etype)
        assert len(log) == len(EVENT_TYPES)


class TestCapacity:
    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            EventLog(capacity=0)

    def test_overflow_drops_and_counts(self):
        log = EventLog(capacity=3)
        for _ in range(5):
            log.emit("shed")
        assert len(log) == 3
        assert log.dropped == 2


class TestFilter:
    def test_events_filters_by_type(self):
        log = EventLog()
        log.emit("shed")
        log.emit("quota_exceeded")
        log.emit("shed")
        assert [e["type"] for e in log.events("shed")] == ["shed", "shed"]
        assert len(log.events()) == 3

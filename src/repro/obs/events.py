"""Structured event journal: typed, timestamped operational records.

Metrics answer "how much"; the journal answers "what happened, when".
Every state transition an operator would grep for — coverage loss and
recovery, supervised worker restarts, shed storms, quota rejections,
cache flushes, SLO alerts — lands here as one JSON-ready record, stamped
on the same host-wide monotonic clock as the tracer's spans
(:func:`repro.obs.trace.now_us`), so the journal, the timeline, and a
Perfetto trace of the same run all align on one time axis.

Design mirrors the tracer's buffer (the same constraints apply):

- **Cheap when idle.**  Emission is one lock, one dict, one append; an
  instrumentation site holding no journal pays a single ``is None``
  test.
- **Bounded.**  The buffer holds at most ``capacity`` records; overflow
  increments :attr:`EventLog.dropped` and discards, never grows.
- **One journal per router.**  Records carry their emitting ``pid``, but
  shard workers keep no journal: admission and recovery, and so every
  event they would record, live in the router process, which reads its
  own journal with :meth:`EventLog.events`.

Record shape::

    {"ts": <monotonic us>, "type": "<event type>", "pid": <int>, ...attrs}

``type`` is validated against :data:`EVENT_TYPES` so a typo at an
emission site fails loudly in tests instead of silently fragmenting the
taxonomy.
"""

from __future__ import annotations

import os
import threading

from repro.obs.trace import now_us

__all__ = ["EVENT_TYPES", "EventLog"]

#: The closed event taxonomy.  Emission sites must use one of these.
EVENT_TYPES = frozenset(
    {
        # Serving-tier result coverage crossed 1.0 (scheduler) or a
        # replica dropped out / came back (supervisor).
        "coverage_lost",
        "coverage_restored",
        # One supervised restart completed (one per RestartRecord).
        "worker_restart",
        # Admission-queue shed and quota rejection (scheduler).
        "shed",
        "quota_exceeded",
        # The engine's query cache was flushed (index mutation).
        "cache_invalidated",
        # SLO burn-rate rule fired / recovered (repro.obs.timeline).
        "slo_alert",
        "slo_alert_cleared",
    }
)


class EventLog:
    """Bounded, thread-safe journal of typed operational events.

    Parameters
    ----------
    capacity:
        Maximum buffered records.  Overflow is counted in
        :attr:`dropped` and discarded — a shed storm must not turn the
        journal into an unbounded allocation.
    """

    def __init__(self, capacity: int = 8_192):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._buf: list[dict] = []
        self._dropped = 0

    @property
    def dropped(self) -> int:
        """Records discarded because the buffer was full."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._buf)

    def emit(self, etype: str, **attrs) -> dict:
        """Record one event; returns the buffered (or dropped) record.

        ``etype`` must be a member of :data:`EVENT_TYPES`; ``attrs``
        become top-level keys of the record and must be JSON-encodable
        (the journal is written out as JSON).  The timestamp is stamped
        here, on the host-wide monotonic clock.
        """
        if etype not in EVENT_TYPES:
            raise ValueError(f"unknown event type {etype!r} (see EVENT_TYPES)")
        record = {"ts": now_us(), "type": etype, "pid": os.getpid(), **attrs}
        with self._lock:
            if len(self._buf) < self.capacity:
                self._buf.append(record)
            else:
                self._dropped += 1
        return record

    def events(self, etype: str | None = None) -> list[dict]:
        """Snapshot copy of buffered records (optionally one type only)."""
        with self._lock:
            if etype is None:
                return list(self._buf)
            return [r for r in self._buf if r["type"] == etype]

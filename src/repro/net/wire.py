"""Wire-format constants shared by the real and the modeled network path.

The serving tier speaks one length-prefixed binary protocol in two places:

- the **real** asyncio socket front end (:mod:`repro.serve.protocol` /
  :mod:`repro.serve.aio`) encodes actual frames with these structs;
- the **modeled** hardware network path (:class:`repro.net.tcp.HardwareTCPStack`,
  the LogGP estimators) charges per-query wire time from message *sizes*.

Keeping the constants here — below both — guarantees the two agree: the
byte counts the timing models charge are exactly the byte counts the real
protocol puts on the wire (:func:`search_frame_bytes` /
:func:`result_frame_bytes`).

Every frame is an 8-byte header followed by a payload::

    magic (u16) | version (u8) | type (u8) | payload_len (u32, LE)

The header is versioned: a peer speaking a different protocol revision is
rejected at the first frame, not mid-stream.  Payload layouts live with
the codec in :mod:`repro.serve.protocol`; only their *sizes* are computed
here so the models need no import from the serving layer.
"""

from __future__ import annotations

import struct

__all__ = [
    "ERR_INTERNAL",
    "ERR_QUOTA",
    "ERR_SHED",
    "FRAME_BATCH_RESULT",
    "FRAME_ERROR",
    "FRAME_HEADER",
    "FRAME_PRESELECT",
    "FRAME_RESULT",
    "FRAME_SEARCH",
    "FRAME_STATS",
    "FRAME_STATS_REQUEST",
    "MAX_FRAME_BYTES",
    "TRACE_CTX",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "batch_result_frame_bytes",
    "error_frame_bytes",
    "preselect_frame_bytes",
    "result_frame_bytes",
    "search_frame_bytes",
    "stats_frame_bytes",
    "stats_request_frame_bytes",
]

#: Frame-header magic: rejects peers that are not speaking this protocol.
WIRE_MAGIC = 0xF5A9
#: Protocol revision; bumped on any layout change.
WIRE_VERSION = 1

#: ``<`` little-endian: magic u16, version u8, frame type u8, payload u32.
FRAME_HEADER = struct.Struct("<HBBI")

#: Frame types.
FRAME_SEARCH = 0x01  # client -> server: one query
FRAME_RESULT = 0x02  # server -> client: one answer
FRAME_ERROR = 0x03  # server -> client: shed / quota / failure
FRAME_PRESELECT = 0x04  # router -> shard worker: preselected query batch
FRAME_BATCH_RESULT = 0x05  # shard worker -> router: batched partial top-K
FRAME_STATS_REQUEST = 0x06  # router -> worker: scrape metrics
FRAME_STATS = 0x07  # worker -> router: metrics snapshot

#: Upper bound on any payload; a corrupt or hostile length prefix must
#: never make a peer buffer gigabytes (a 4096-d f32 query is ~16 KiB).
MAX_FRAME_BYTES = 1 << 24

#: Error codes carried by :data:`FRAME_ERROR` payloads.
ERR_SHED = 0x01  # admission queue full; request shed
ERR_QUOTA = 0x02  # per-tenant quota exhausted (retry_after_s meaningful)
ERR_INTERNAL = 0x03  # backend / server failure

#: Fixed (pre-tenant, pre-vector) part of a search payload:
#: request_id u32, k u16, nprobe i32 (-1 = None), flags u8, tenant_len u8,
#: d u32.
SEARCH_FIXED = struct.Struct("<IHiBBI")
#: Fixed part of a result payload: request_id u32, k u16, flags u8,
#: batch_size u32, queue_us f32, exec_us f32, coverage f32.
RESULT_FIXED = struct.Struct("<IHBIfff")
#: Fixed part of an error payload: request_id u32, code u8,
#: retry_after_s f32, message_len u16.
ERROR_FIXED = struct.Struct("<IBfH")
#: Fixed part of a preselect payload: request_id u32, k u16, flags u8,
#: nq u32, nprobe u16, d u32.  Followed by the (nq, nprobe) i32 probed
#: cell ids (-1 pads pruned slots) and the (nq, d) f32 rotated queries.
PRESELECT_FIXED = struct.Struct("<IHBIHI")
#: Fixed part of a batch-result payload: request_id u32, nq u32, k u16,
#: flags u8, exec_us f32, codes_scanned u64.  Followed by the (nq, k)
#: i64 ids and the (nq, k) f32 distances, then (when the spans flag is
#: set) a u32 blob length and that many bytes of JSON span records.
BATCH_RESULT_FIXED = struct.Struct("<IIHBfQ")
#: Optional trace context appended to search/preselect payloads when the
#: frame's ``traced`` flag bit is set: trace_id u64, parent_span_id u64.
#: The flag bit itself carries the head-sampling decision, so an
#: untraced frame is byte-identical to the pre-tracing layout.
TRACE_CTX = struct.Struct("<QQ")
#: Stats-request payload: request_id u32.
STATS_REQUEST_FIXED = struct.Struct("<I")
#: Stats payload: request_id u32, followed by a JSON snapshot blob
#: (length implied by the frame's payload length).
STATS_FIXED = struct.Struct("<I")


def search_frame_bytes(d: int, tenant_bytes: int = 0, traced: bool = False) -> int:
    """Total on-wire bytes of one search frame for a ``d``-dim f32 query.

    ``traced`` charges the optional trace-context tail — the exact delta
    a sampled request adds on the wire.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    base = FRAME_HEADER.size + SEARCH_FIXED.size + tenant_bytes + 4 * d
    return base + (TRACE_CTX.size if traced else 0)


def result_frame_bytes(k: int) -> int:
    """Total on-wire bytes of one result frame carrying ``k`` (id, dist)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return FRAME_HEADER.size + RESULT_FIXED.size + 12 * k


def error_frame_bytes(message_bytes: int = 0) -> int:
    """Total on-wire bytes of one error frame with a ``message_bytes`` text."""
    return FRAME_HEADER.size + ERROR_FIXED.size + message_bytes


def preselect_frame_bytes(
    nq: int, nprobe: int, d: int, traced: bool = False
) -> int:
    """Total on-wire bytes of one preselect-scatter frame.

    The frame the router sends each shard worker: ``nq`` rotated f32
    queries plus the ``(nq, nprobe)`` i32 preselected cell list — the
    *real* scatter payload the preselect-once data plane puts on the
    wire, so the LogGP/TCP models charge cell lists, not just vectors.
    ``traced`` charges the optional trace-context tail.
    """
    if nq < 1:
        raise ValueError(f"nq must be >= 1, got {nq}")
    if nprobe < 1:
        raise ValueError(f"nprobe must be >= 1, got {nprobe}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    base = FRAME_HEADER.size + PRESELECT_FIXED.size + 4 * nq * nprobe + 4 * nq * d
    return base + (TRACE_CTX.size if traced else 0)


def batch_result_frame_bytes(nq: int, k: int, span_bytes: int = 0) -> int:
    """Total on-wire bytes of one batched partial-top-K result frame.

    ``span_bytes`` charges the optional piggybacked span blob (u32
    length prefix + JSON records) a traced scatter ships back.
    """
    if nq < 1:
        raise ValueError(f"nq must be >= 1, got {nq}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    base = FRAME_HEADER.size + BATCH_RESULT_FIXED.size + 12 * nq * k
    return base + (4 + span_bytes if span_bytes else 0)


def stats_request_frame_bytes() -> int:
    """Total on-wire bytes of one stats-request frame."""
    return FRAME_HEADER.size + STATS_REQUEST_FIXED.size


def stats_frame_bytes(blob_bytes: int) -> int:
    """Total on-wire bytes of one stats frame with a ``blob_bytes`` JSON body."""
    if blob_bytes < 0:
        raise ValueError(f"blob_bytes must be >= 0, got {blob_bytes}")
    return FRAME_HEADER.size + STATS_FIXED.size + blob_bytes

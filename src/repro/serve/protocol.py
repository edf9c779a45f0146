"""Length-prefixed binary protocol for the asyncio serving front end.

Frames are the wire format of :mod:`repro.net.wire` (shared with the
hardware-network timing models, so modeled byte counts match reality):
an 8-byte versioned header (magic, version, type, payload length) and a
type-specific payload.

- **search** (client → server): request id, ``k``/``nprobe``, priority
  flag, tenant tag, and the raw f32 query vector.
- **result** (server → client): request id, the ``(ids, dists)`` top-K
  (raw i64/f32 bytes — results survive the wire bit for bit), and the
  :class:`~repro.serve.scheduler.ServeResult` latency/batch metadata.
- **error** (server → client): request id, an error code (shed / quota /
  internal), a ``retry_after_s`` hint (quota sheds carry the token
  bucket's refill time, so well-behaved clients can back off precisely
  instead of polling), and a short message.  The error table lives here
  alone: :func:`encode_exception` turns a server-side exception into an
  error frame and :func:`remote_exception` turns the frame back into the
  exception a local engine would have raised.

Request ids correlate responses to requests: a connection may pipeline
many requests and the server answers in completion order, not arrival
order.  Ids are per-connection and chosen by the client; the server
echoes them opaquely.

Trace context is an *optional* tail on search and preselect payloads,
gated by a flag bit: an untraced frame is byte-identical to the
pre-tracing layout, and the flag bit itself carries the head-sampling
decision across the process boundary.  Traced scatters ship the
worker-side spans back piggybacked on the batch-result frame (a
length-prefixed JSON blob, also flag-gated), which is every span a
worker records.  The stats frame pair is the metrics-scrape channel for
``WorkerPool.stats()``: the request is its id alone, the reply one JSON
snapshot.

Every payload starts with its u32 request id (:func:`request_id_of`
reads it without decoding the rest).

Encoding is pure (bytes in, frames out) so it is testable without
sockets.  The frame header is checked in one place, :func:`parse_header`,
which both readers call: :func:`read_frame` is the one asyncio-aware
helper, reading one validated frame from a :class:`asyncio.StreamReader`,
and the blocking router-side client reads through the same check.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass

import numpy as np

from repro.net.wire import (
    BATCH_RESULT_FIXED,
    ERR_INTERNAL,
    ERR_QUOTA,
    ERR_SHED,
    ERROR_FIXED,
    FRAME_BATCH_RESULT,
    FRAME_ERROR,
    FRAME_HEADER,
    FRAME_PRESELECT,
    FRAME_RESULT,
    FRAME_SEARCH,
    FRAME_STATS,
    FRAME_STATS_REQUEST,
    MAX_FRAME_BYTES,
    PRESELECT_FIXED,
    RESULT_FIXED,
    SEARCH_FIXED,
    STATS_FIXED,
    STATS_REQUEST_FIXED,
    TRACE_CTX,
    WIRE_MAGIC,
    WIRE_VERSION,
)
from repro.obs.trace import SpanContext
from repro.serve.qos import DEFAULT_TENANT
from repro.serve.scheduler import AdmissionError, QuotaExceededError

__all__ = [
    "BatchResultFrame",
    "ErrorFrame",
    "PreselectFrame",
    "ProtocolError",
    "RemoteServeError",
    "ResultFrame",
    "SearchFrame",
    "StatsFrame",
    "StatsRequestFrame",
    "decode_batch_result",
    "decode_error",
    "decode_preselect",
    "decode_result",
    "decode_search",
    "decode_stats",
    "decode_stats_request",
    "encode_batch_result",
    "encode_error",
    "encode_exception",
    "encode_preselect",
    "encode_result",
    "encode_search",
    "encode_stats",
    "encode_stats_request",
    "parse_header",
    "read_frame",
    "remote_exception",
    "request_id_of",
]

#: Flag bits of a search frame.
FLAG_PRIORITY = 0x01
FLAG_TRACED = 0x02  # payload ends with a TRACE_CTX tail
#: Flag bits of a result frame.
FLAG_CACHE_HIT = 0x01
FLAG_PARTIAL = 0x02
#: Flag bits of a preselect frame.
PRESELECT_FLAG_TRACED = 0x01  # payload ends with a TRACE_CTX tail
#: Flag bits of a batch-result frame.
BATCH_FLAG_SPANS = 0x01  # payload ends with a span JSON blob


#: Bytes of the frame header every frame starts with.
HEADER_SIZE = FRAME_HEADER.size
#: The u32 request id every payload starts with.
_REQUEST_ID = struct.Struct("<I")


class ProtocolError(RuntimeError):
    """A malformed, truncated, or wrong-version frame."""


class RemoteServeError(RuntimeError):
    """A server-side failure reported through an error frame."""


@dataclass(frozen=True)
class SearchFrame:
    """One decoded search request."""

    request_id: int
    query: np.ndarray  # (d,) float32
    k: int
    nprobe: int | None
    tenant: str
    priority: bool
    trace: SpanContext | None = None


@dataclass(frozen=True)
class ResultFrame:
    """One decoded answer (bit-identical ids/dists plus metadata)."""

    request_id: int
    ids: np.ndarray  # (k,) int64
    dists: np.ndarray  # (k,) float32
    queue_us: float
    exec_us: float
    batch_size: int
    cache_hit: bool
    coverage: float


@dataclass(frozen=True)
class PreselectFrame:
    """One decoded preselect-scatter batch (router → shard worker).

    Carries the router's already-computed coarse stage: the rotated
    queries and the probed cell ids (``-1`` pads slots pruned away for
    this shard), so the worker skips straight to BuildLUT + PQDist +
    SelK over its slice.
    """

    request_id: int
    queries_t: np.ndarray  # (nq, d) float32, already OPQ-rotated
    probed: np.ndarray  # (nq, nprobe) int32; -1 = pruned slot
    k: int
    trace: SpanContext | None = None


@dataclass(frozen=True)
class BatchResultFrame:
    """One decoded batched partial top-K (shard worker → router)."""

    request_id: int
    ids: np.ndarray  # (nq, k) int64
    dists: np.ndarray  # (nq, k) float32
    exec_us: float
    codes_scanned: int
    spans: tuple = ()  # piggybacked worker span dicts (traced scatters)


@dataclass(frozen=True)
class ErrorFrame:
    """One decoded error response (shed / quota / internal failure)."""

    request_id: int
    code: int
    retry_after_s: float
    message: str


def _frame(ftype: int, payload: bytes) -> bytes:
    return FRAME_HEADER.pack(WIRE_MAGIC, WIRE_VERSION, ftype, len(payload)) + payload


def encode_search(
    request_id: int,
    query: np.ndarray,
    k: int,
    nprobe: int | None = None,
    *,
    tenant: str = DEFAULT_TENANT,
    priority: bool = False,
    trace: SpanContext | None = None,
) -> bytes:
    """Encode one search request into a complete frame.

    A sampled ``trace`` appends the 16-byte trace-context tail and sets
    :data:`FLAG_TRACED`; otherwise the frame is byte-identical to an
    untraced one.
    """
    q = np.ascontiguousarray(query, dtype=np.float32).reshape(-1)
    tenant_b = tenant.encode("utf-8")
    if len(tenant_b) > 255:
        raise ValueError(f"tenant name too long for the wire ({len(tenant_b)} bytes)")
    if not 1 <= k <= 0xFFFF:
        raise ValueError(f"k must be in [1, 65535], got {k}")
    traced = trace is not None and trace.sampled
    flags = (FLAG_PRIORITY if priority else 0) | (FLAG_TRACED if traced else 0)
    payload = (
        SEARCH_FIXED.pack(
            request_id & 0xFFFFFFFF,
            k,
            -1 if nprobe is None else int(nprobe),
            flags,
            len(tenant_b),
            q.shape[0],
        )
        + tenant_b
        + q.tobytes()
    )
    if traced:
        payload += TRACE_CTX.pack(trace.trace_id, trace.span_id)
    return _frame(FRAME_SEARCH, payload)


def decode_search(payload: bytes) -> SearchFrame:
    """Decode a search payload; raises :class:`ProtocolError` when malformed."""
    if len(payload) < SEARCH_FIXED.size:
        raise ProtocolError(f"search payload truncated ({len(payload)} bytes)")
    request_id, k, nprobe, flags, tenant_len, d = SEARCH_FIXED.unpack_from(payload)
    off = SEARCH_FIXED.size
    traced = bool(flags & FLAG_TRACED)
    want = off + tenant_len + 4 * d + (TRACE_CTX.size if traced else 0)
    if len(payload) != want:
        raise ProtocolError(
            f"search payload is {len(payload)} bytes, header implies {want}"
        )
    try:
        tenant = payload[off : off + tenant_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        # A bit-flipped tenant must kill (at most) this connection via the
        # typed protocol path, not leak a UnicodeDecodeError upstream.
        raise ProtocolError(f"search tenant is not valid UTF-8: {exc}") from None
    query = np.frombuffer(payload, dtype=np.float32, count=d, offset=off + tenant_len)
    trace = None
    if traced:
        trace_id, span_id = TRACE_CTX.unpack_from(payload, want - TRACE_CTX.size)
        trace = SpanContext(trace_id, span_id, True)
    return SearchFrame(
        request_id=request_id,
        query=query,
        k=k,
        nprobe=None if nprobe < 0 else nprobe,
        tenant=tenant or DEFAULT_TENANT,
        priority=bool(flags & FLAG_PRIORITY),
        trace=trace,
    )


def encode_result(
    request_id: int,
    ids: np.ndarray,
    dists: np.ndarray,
    *,
    queue_us: float = 0.0,
    exec_us: float = 0.0,
    batch_size: int = 0,
    cache_hit: bool = False,
    coverage: float = 1.0,
) -> bytes:
    """Encode one answer; ids/dists travel as raw i64/f32 (bit-exact)."""
    ids = np.ascontiguousarray(ids, dtype=np.int64).reshape(-1)
    dists = np.ascontiguousarray(dists, dtype=np.float32).reshape(-1)
    if ids.shape != dists.shape:
        raise ValueError(f"ids/dists shapes differ: {ids.shape} vs {dists.shape}")
    flags = (FLAG_CACHE_HIT if cache_hit else 0) | (
        FLAG_PARTIAL if coverage < 1.0 else 0
    )
    payload = (
        RESULT_FIXED.pack(
            request_id & 0xFFFFFFFF,
            ids.shape[0],
            flags,
            batch_size,
            queue_us,
            exec_us,
            coverage,
        )
        + ids.tobytes()
        + dists.tobytes()
    )
    return _frame(FRAME_RESULT, payload)


def decode_result(payload: bytes) -> ResultFrame:
    """Decode a result payload; raises :class:`ProtocolError` when malformed."""
    if len(payload) < RESULT_FIXED.size:
        raise ProtocolError(f"result payload truncated ({len(payload)} bytes)")
    request_id, k, flags, batch_size, queue_us, exec_us, coverage = (
        RESULT_FIXED.unpack_from(payload)
    )
    off = RESULT_FIXED.size
    want = off + 12 * k
    if len(payload) != want:
        raise ProtocolError(
            f"result payload is {len(payload)} bytes, header implies {want}"
        )
    ids = np.frombuffer(payload, dtype=np.int64, count=k, offset=off)
    dists = np.frombuffer(payload, dtype=np.float32, count=k, offset=off + 8 * k)
    return ResultFrame(
        request_id=request_id,
        ids=ids,
        dists=dists,
        queue_us=queue_us,
        exec_us=exec_us,
        batch_size=batch_size,
        cache_hit=bool(flags & FLAG_CACHE_HIT),
        coverage=coverage,
    )


def encode_error(
    request_id: int,
    code: int,
    *,
    retry_after_s: float = 0.0,
    message: str = "",
) -> bytes:
    """Encode one error response (shed / quota / internal)."""
    msg_b = message.encode("utf-8")[:0xFFFF]
    payload = (
        ERROR_FIXED.pack(request_id & 0xFFFFFFFF, code, retry_after_s, len(msg_b))
        + msg_b
    )
    return _frame(FRAME_ERROR, payload)


def decode_error(payload: bytes) -> ErrorFrame:
    """Decode an error payload; raises :class:`ProtocolError` when malformed."""
    if len(payload) < ERROR_FIXED.size:
        raise ProtocolError(f"error payload truncated ({len(payload)} bytes)")
    request_id, code, retry_after_s, msg_len = ERROR_FIXED.unpack_from(payload)
    off = ERROR_FIXED.size
    if len(payload) != off + msg_len:
        raise ProtocolError(
            f"error payload is {len(payload)} bytes, header implies {off + msg_len}"
        )
    return ErrorFrame(
        request_id=request_id,
        code=code,
        retry_after_s=retry_after_s,
        message=payload[off:].decode("utf-8", errors="replace"),
    )


def encode_exception(request_id: int, exc: Exception) -> bytes:
    """Encode the error frame that reports ``exc`` to the requester.

    A quota shed keeps its ``retry_after_s``; it is checked before the
    plain shed because :class:`QuotaExceededError` subclasses
    :class:`AdmissionError`.  Any other exception is an internal failure
    whose message names the exception type.
    """
    if isinstance(exc, QuotaExceededError):
        return encode_error(
            request_id, ERR_QUOTA,
            retry_after_s=exc.retry_after_s or 0.0, message=str(exc),
        )
    if isinstance(exc, AdmissionError):
        return encode_error(request_id, ERR_SHED, message=str(exc))
    return encode_error(
        request_id, ERR_INTERNAL, message=f"{type(exc).__name__}: {exc}"
    )


def remote_exception(err: ErrorFrame) -> Exception:
    """The local exception a decoded error frame stands for."""
    if err.code == ERR_QUOTA:
        return QuotaExceededError(err.message, retry_after_s=err.retry_after_s)
    if err.code == ERR_SHED:
        return AdmissionError(err.message)
    return RemoteServeError(err.message)


def encode_preselect(
    request_id: int,
    queries_t: np.ndarray,
    probed: np.ndarray,
    k: int,
    *,
    trace: SpanContext | None = None,
) -> bytes:
    """Encode one preselect-scatter batch into a complete frame.

    ``queries_t`` is the (nq, d) OPQ-rotated query block and ``probed``
    the (nq, nprobe) preselected cell ids; ``-1`` entries mark slots
    pruned for the receiving shard (empty on its slice).  A sampled
    ``trace`` appends the trace-context tail (flag-gated, like search).
    """
    q = np.ascontiguousarray(np.atleast_2d(queries_t), dtype=np.float32)
    cells = np.ascontiguousarray(np.atleast_2d(probed), dtype=np.int32)
    if q.shape[0] != cells.shape[0]:
        raise ValueError(
            f"queries_t rows ({q.shape[0]}) != probed rows ({cells.shape[0]})"
        )
    nq, d = q.shape
    nprobe = cells.shape[1]
    if nq < 1:
        raise ValueError("preselect frame needs at least one query")
    if not 1 <= k <= 0xFFFF:
        raise ValueError(f"k must be in [1, 65535], got {k}")
    if not 1 <= nprobe <= 0xFFFF:
        raise ValueError(f"nprobe must be in [1, 65535], got {nprobe}")
    traced = trace is not None and trace.sampled
    flags = PRESELECT_FLAG_TRACED if traced else 0
    payload = (
        PRESELECT_FIXED.pack(request_id & 0xFFFFFFFF, k, flags, nq, nprobe, d)
        + cells.tobytes()
        + q.tobytes()
    )
    if traced:
        payload += TRACE_CTX.pack(trace.trace_id, trace.span_id)
    return _frame(FRAME_PRESELECT, payload)


def decode_preselect(payload: bytes) -> PreselectFrame:
    """Decode a preselect payload; raises :class:`ProtocolError` when malformed."""
    if len(payload) < PRESELECT_FIXED.size:
        raise ProtocolError(f"preselect payload truncated ({len(payload)} bytes)")
    request_id, k, flags, nq, nprobe, d = PRESELECT_FIXED.unpack_from(payload)
    off = PRESELECT_FIXED.size
    traced = bool(flags & PRESELECT_FLAG_TRACED)
    want = off + 4 * nq * nprobe + 4 * nq * d + (TRACE_CTX.size if traced else 0)
    if len(payload) != want:
        raise ProtocolError(
            f"preselect payload is {len(payload)} bytes, header implies {want}"
        )
    probed = np.frombuffer(
        payload, dtype=np.int32, count=nq * nprobe, offset=off
    ).reshape(nq, nprobe)
    queries_t = np.frombuffer(
        payload, dtype=np.float32, count=nq * d, offset=off + 4 * nq * nprobe
    ).reshape(nq, d)
    trace = None
    if traced:
        trace_id, span_id = TRACE_CTX.unpack_from(payload, want - TRACE_CTX.size)
        trace = SpanContext(trace_id, span_id, True)
    return PreselectFrame(
        request_id=request_id, queries_t=queries_t, probed=probed, k=k, trace=trace
    )


def encode_batch_result(
    request_id: int,
    ids: np.ndarray,
    dists: np.ndarray,
    *,
    exec_us: float = 0.0,
    codes_scanned: int = 0,
    spans=None,
) -> bytes:
    """Encode one batched partial top-K; ids/dists travel bit-exact.

    ``spans`` (a list of span dicts) piggybacks the worker-side spans of
    a traced scatter back to the router as a length-prefixed JSON blob,
    flag-gated so untraced replies stay byte-identical.
    """
    ids = np.ascontiguousarray(np.atleast_2d(ids), dtype=np.int64)
    dists = np.ascontiguousarray(np.atleast_2d(dists), dtype=np.float32)
    if ids.shape != dists.shape:
        raise ValueError(f"ids/dists shapes differ: {ids.shape} vs {dists.shape}")
    nq, k = ids.shape
    flags = BATCH_FLAG_SPANS if spans else 0
    payload = (
        BATCH_RESULT_FIXED.pack(
            request_id & 0xFFFFFFFF, nq, k, flags, exec_us, max(int(codes_scanned), 0)
        )
        + ids.tobytes()
        + dists.tobytes()
    )
    if spans:
        blob = json.dumps(list(spans), separators=(",", ":")).encode("utf-8")
        payload += len(blob).to_bytes(4, "little") + blob
    return _frame(FRAME_BATCH_RESULT, payload)


def decode_batch_result(payload: bytes) -> BatchResultFrame:
    """Decode a batch-result payload; raises :class:`ProtocolError` when malformed."""
    if len(payload) < BATCH_RESULT_FIXED.size:
        raise ProtocolError(
            f"batch-result payload truncated ({len(payload)} bytes)"
        )
    request_id, nq, k, flags, exec_us, codes_scanned = (
        BATCH_RESULT_FIXED.unpack_from(payload)
    )
    off = BATCH_RESULT_FIXED.size
    arrays_end = off + 12 * nq * k
    spans: tuple = ()
    if flags & BATCH_FLAG_SPANS:
        if len(payload) < arrays_end + 4:
            raise ProtocolError(
                f"batch-result payload is {len(payload)} bytes, span blob "
                f"length prefix implies >= {arrays_end + 4}"
            )
        blob_len = int.from_bytes(payload[arrays_end : arrays_end + 4], "little")
        want = arrays_end + 4 + blob_len
        if len(payload) != want:
            raise ProtocolError(
                f"batch-result payload is {len(payload)} bytes, header implies {want}"
            )
        try:
            blob = json.loads(payload[arrays_end + 4 :].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"bad span blob in batch result: {exc}") from None
        if not isinstance(blob, list):
            # A bit-flipped blob can still be valid JSON of the wrong
            # shape; that too is a protocol error, not a TypeError.
            raise ProtocolError("span blob must decode to a list")
        spans = tuple(blob)
    elif len(payload) != arrays_end:
        raise ProtocolError(
            f"batch-result payload is {len(payload)} bytes, header implies "
            f"{arrays_end}"
        )
    ids = np.frombuffer(payload, dtype=np.int64, count=nq * k, offset=off).reshape(
        nq, k
    )
    dists = np.frombuffer(
        payload, dtype=np.float32, count=nq * k, offset=off + 8 * nq * k
    ).reshape(nq, k)
    return BatchResultFrame(
        request_id=request_id,
        ids=ids,
        dists=dists,
        exec_us=exec_us,
        codes_scanned=codes_scanned,
        spans=spans,
    )


@dataclass(frozen=True)
class StatsRequestFrame:
    """One decoded metrics-scrape request (router → worker)."""

    request_id: int


@dataclass(frozen=True)
class StatsFrame:
    """One decoded metrics snapshot (worker → router).

    ``data`` is the worker's JSON-encoded view: pid, the registry
    snapshot and the tracer's dropped-span count.
    """

    request_id: int
    data: dict


def encode_stats_request(request_id: int) -> bytes:
    """Encode a stats-scrape request (the request id alone)."""
    return _frame(
        FRAME_STATS_REQUEST, STATS_REQUEST_FIXED.pack(request_id & 0xFFFFFFFF)
    )


def decode_stats_request(payload: bytes) -> StatsRequestFrame:
    """Decode a stats-request payload."""
    if len(payload) != STATS_REQUEST_FIXED.size:
        raise ProtocolError(
            f"stats-request payload is {len(payload)} bytes, "
            f"expected {STATS_REQUEST_FIXED.size}"
        )
    (request_id,) = STATS_REQUEST_FIXED.unpack(payload)
    return StatsRequestFrame(request_id=request_id)


def encode_stats(request_id: int, data: dict) -> bytes:
    """Encode one worker stats snapshot (JSON blob after the request id)."""
    blob = json.dumps(data, separators=(",", ":")).encode("utf-8")
    return _frame(FRAME_STATS, STATS_FIXED.pack(request_id & 0xFFFFFFFF) + blob)


def decode_stats(payload: bytes) -> StatsFrame:
    """Decode a stats payload; raises :class:`ProtocolError` when malformed."""
    if len(payload) < STATS_FIXED.size:
        raise ProtocolError(f"stats payload truncated ({len(payload)} bytes)")
    (request_id,) = STATS_FIXED.unpack_from(payload)
    try:
        data = json.loads(payload[STATS_FIXED.size :].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad stats blob: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError("stats blob must decode to an object")
    return StatsFrame(request_id=request_id, data=data)


#: payload decoder per frame type (its keys are the frame types
#: :func:`parse_header` accepts).
DECODERS = {
    FRAME_SEARCH: decode_search,
    FRAME_RESULT: decode_result,
    FRAME_ERROR: decode_error,
    FRAME_PRESELECT: decode_preselect,
    FRAME_BATCH_RESULT: decode_batch_result,
    FRAME_STATS_REQUEST: decode_stats_request,
    FRAME_STATS: decode_stats,
}


def parse_header(header: bytes) -> tuple[int, int]:
    """Validate one 8-byte frame header; returns ``(frame_type, length)``.

    Raises :class:`ProtocolError` on a bad magic, an unsupported
    version, an unknown frame type, or an oversized length prefix.
    """
    magic, version, ftype, length = FRAME_HEADER.unpack(header)
    if magic != WIRE_MAGIC:
        raise ProtocolError(f"bad frame magic 0x{magic:04x}")
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"peer speaks protocol v{version}, this end v{WIRE_VERSION}"
        )
    if ftype not in DECODERS:
        raise ProtocolError(f"unknown frame type 0x{ftype:02x}")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return ftype, length


def request_id_of(payload: bytes) -> int:
    """The request id a payload carries, read without decoding the rest."""
    if len(payload) < _REQUEST_ID.size:
        raise ProtocolError(
            f"payload too short for a request id ({len(payload)} bytes)"
        )
    return _REQUEST_ID.unpack_from(payload)[0]


async def read_frame(reader) -> tuple[int, bytes] | None:
    """Read one validated ``(frame_type, payload)`` from a stream reader.

    Returns ``None`` on a clean EOF at a frame boundary (the peer closed
    the connection between frames).  Raises :class:`ProtocolError` on a
    header :func:`parse_header` rejects or an EOF mid-frame.
    """
    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise ProtocolError(
            f"connection closed mid-header ({len(exc.partial)} bytes)"
        ) from None
    ftype, length = parse_header(header)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-payload ({len(exc.partial)}/{length} bytes)"
        ) from None
    return ftype, payload

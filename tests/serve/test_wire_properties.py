"""Property-based round-trips and decoder fuzz for every wire frame.

Two contracts, checked over randomized inputs (Hypothesis):

- **Round-trip**: for every frame type, ``decode(encode(x))`` preserves
  every field — arrays bit for bit (random bit patterns, so NaN/inf
  payloads are covered), floats to f32 precision (the wire width),
  strings exactly.
- **Fuzz**: a truncated, bit-flipped, or over-long payload fed to any
  decoder either decodes cleanly (the corruption hit a don't-care byte)
  or raises :class:`ProtocolError` — never any other exception.  This
  is what lets the servers guarantee a corrupt frame costs at most its
  own connection.

Hypothesis is optional tooling (not a package dependency); the module
skips when it is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.wire import (
    FRAME_BATCH_RESULT,
    FRAME_ERROR,
    FRAME_HEADER,
    FRAME_PRESELECT,
    FRAME_RESULT,
    FRAME_SEARCH,
    FRAME_STATS,
    FRAME_STATS_REQUEST,
    WIRE_MAGIC,
    WIRE_VERSION,
    stats_request_frame_bytes,
)
from repro.obs.trace import SpanContext
from repro.serve.protocol import (
    DECODERS,
    ProtocolError,
    decode_batch_result,
    decode_error,
    decode_preselect,
    decode_result,
    decode_search,
    decode_stats,
    decode_stats_request,
    encode_batch_result,
    encode_error,
    encode_preselect,
    encode_result,
    encode_search,
    encode_stats,
    encode_stats_request,
    parse_header,
)
from repro.serve.qos import DEFAULT_TENANT

RELAXED = settings(
    deadline=None,  # 1-CPU CI hosts stall arbitrarily
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)

u32 = st.integers(0, 2**32 - 1)
u64 = st.integers(0, 2**64 - 1)
k16 = st.integers(1, 0xFFFF)
f32 = st.floats(allow_nan=False, width=32)
#: None or a sampled span context (the only kind that crosses the wire).
traces = st.none() | st.builds(
    lambda t, s: SpanContext(t, s, True), u64, u64
)
#: Tenant names must fit one length byte of UTF-8.
tenants = st.text(max_size=40).filter(lambda t: len(t.encode()) <= 255)


def _blob(n_bytes: int):
    """Exactly-n random bytes — arbitrary bit patterns for arrays."""
    return st.binary(min_size=n_bytes, max_size=n_bytes)


def _split(frame: bytes, expect_type: int) -> bytes:
    """Validate the header, return the payload."""
    magic, version, ftype, length = FRAME_HEADER.unpack_from(frame)
    assert magic == WIRE_MAGIC
    assert version == WIRE_VERSION
    assert ftype == expect_type
    payload = frame[FRAME_HEADER.size :]
    assert len(payload) == length
    return payload


@st.composite
def search_frames(draw):
    d = draw(st.integers(0, 16))
    query = np.frombuffer(draw(_blob(4 * d)), dtype=np.float32)
    return (
        draw(u32),
        query,
        draw(k16),
        draw(st.none() | st.integers(0, 2**31 - 1)),
        draw(tenants),
        draw(st.booleans()),
        draw(traces),
    )


@st.composite
def result_frames(draw):
    k = draw(st.integers(0, 16))
    ids = np.frombuffer(draw(_blob(8 * k)), dtype=np.int64)
    dists = np.frombuffer(draw(_blob(4 * k)), dtype=np.float32)
    return (
        draw(u32), ids, dists, draw(f32), draw(f32),
        draw(u32), draw(st.booleans()), draw(f32),
    )


@st.composite
def preselect_frames(draw):
    nq = draw(st.integers(1, 3))
    d = draw(st.integers(1, 6))
    nprobe = draw(st.integers(1, 5))
    queries_t = np.frombuffer(
        draw(_blob(4 * nq * d)), dtype=np.float32
    ).reshape(nq, d)
    probed = np.frombuffer(
        draw(_blob(4 * nq * nprobe)), dtype=np.int32
    ).reshape(nq, nprobe)
    return draw(u32), queries_t, probed, draw(k16), draw(traces)


#: JSON-clean span dicts, the shape workers piggyback on batch results.
span_dicts = st.lists(
    st.dictionaries(
        st.text(max_size=6),
        st.integers(-1000, 1000) | st.text(max_size=6) | st.booleans(),
        max_size=3,
    ),
    max_size=3,
)


@st.composite
def batch_result_frames(draw):
    nq = draw(st.integers(1, 3))
    k = draw(st.integers(1, 6))
    ids = np.frombuffer(draw(_blob(8 * nq * k)), dtype=np.int64).reshape(nq, k)
    dists = np.frombuffer(
        draw(_blob(4 * nq * k)), dtype=np.float32
    ).reshape(nq, k)
    return (
        draw(u32), ids, dists, draw(f32),
        draw(st.integers(0, 2**63 - 1)), draw(st.none() | span_dicts),
    )


class TestRoundTripProperties:
    @RELAXED
    @given(args=search_frames())
    def test_search(self, args):
        rid, query, k, nprobe, tenant, priority, trace = args
        frame = encode_search(
            rid, query, k, nprobe, tenant=tenant, priority=priority,
            trace=trace,
        )
        f = decode_search(_split(frame, FRAME_SEARCH))
        assert f.request_id == rid
        assert f.k == k
        assert f.nprobe == nprobe
        assert f.tenant == (tenant or DEFAULT_TENANT)
        assert f.priority == priority
        assert f.query.dtype == np.float32
        assert f.query.tobytes() == query.tobytes()
        if trace is None:
            assert f.trace is None
        else:
            assert (f.trace.trace_id, f.trace.span_id) == (
                trace.trace_id, trace.span_id,
            )
            assert f.trace.sampled

    @RELAXED
    @given(args=result_frames())
    def test_result(self, args):
        rid, ids, dists, queue_us, exec_us, batch, hit, coverage = args
        frame = encode_result(
            rid, ids, dists, queue_us=queue_us, exec_us=exec_us,
            batch_size=batch, cache_hit=hit, coverage=coverage,
        )
        f = decode_result(_split(frame, FRAME_RESULT))
        assert f.request_id == rid
        assert f.ids.tobytes() == ids.tobytes()
        assert f.dists.tobytes() == dists.tobytes()
        assert f.queue_us == np.float32(queue_us)
        assert f.exec_us == np.float32(exec_us)
        assert f.batch_size == batch
        assert f.cache_hit == hit
        assert f.coverage == np.float32(coverage)

    @RELAXED
    @given(
        rid=u32, code=st.integers(0, 255), retry=f32,
        message=st.text(max_size=80),
    )
    def test_error(self, rid, code, retry, message):
        f = decode_error(
            _split(
                encode_error(rid, code, retry_after_s=retry, message=message),
                FRAME_ERROR,
            )
        )
        assert f.request_id == rid
        assert f.code == code
        assert f.retry_after_s == np.float32(retry)
        assert f.message == message

    @RELAXED
    @given(args=preselect_frames())
    def test_preselect(self, args):
        rid, queries_t, probed, k, trace = args
        frame = encode_preselect(rid, queries_t, probed, k, trace=trace)
        f = decode_preselect(_split(frame, FRAME_PRESELECT))
        assert f.request_id == rid
        assert f.k == k
        assert f.queries_t.shape == queries_t.shape
        assert f.queries_t.tobytes() == queries_t.tobytes()
        assert f.probed.dtype == np.int32
        assert f.probed.tobytes() == probed.tobytes()
        if trace is None:
            assert f.trace is None
        else:
            assert (f.trace.trace_id, f.trace.span_id) == (
                trace.trace_id, trace.span_id,
            )

    @RELAXED
    @given(args=batch_result_frames())
    def test_batch_result(self, args):
        rid, ids, dists, exec_us, scanned, spans = args
        frame = encode_batch_result(
            rid, ids, dists, exec_us=exec_us, codes_scanned=scanned,
            spans=spans,
        )
        f = decode_batch_result(_split(frame, FRAME_BATCH_RESULT))
        assert f.request_id == rid
        assert f.ids.shape == ids.shape
        assert f.ids.tobytes() == ids.tobytes()
        assert f.dists.tobytes() == dists.tobytes()
        assert f.exec_us == np.float32(exec_us)
        assert f.codes_scanned == scanned
        assert f.spans == (tuple(spans) if spans else ())

    @RELAXED
    @given(rid=u32)
    def test_stats_request(self, rid):
        frame = encode_stats_request(rid)
        assert len(frame) == stats_request_frame_bytes()
        f = decode_stats_request(_split(frame, FRAME_STATS_REQUEST))
        assert f.request_id == rid

    @RELAXED
    @given(
        rid=u32,
        data=st.dictionaries(
            st.text(max_size=8),
            st.integers(-10**6, 10**6) | st.text(max_size=8) | st.booleans(),
            max_size=4,
        ),
    )
    def test_stats(self, rid, data):
        f = decode_stats(_split(encode_stats(rid, data), FRAME_STATS))
        assert (f.request_id, f.data) == (rid, data)


#: One valid frame of any type — the fuzz corpus seed.
any_frame = st.one_of(
    search_frames().map(
        lambda a: encode_search(
            a[0], a[1], a[2], a[3], tenant=a[4], priority=a[5], trace=a[6]
        )
    ),
    result_frames().map(
        lambda a: encode_result(
            a[0], a[1], a[2], queue_us=a[3], exec_us=a[4],
            batch_size=a[5], cache_hit=a[6], coverage=a[7],
        )
    ),
    preselect_frames().map(
        lambda a: encode_preselect(a[0], a[1], a[2], a[3], trace=a[4])
    ),
    batch_result_frames().map(
        lambda a: encode_batch_result(
            a[0], a[1], a[2], exec_us=a[3], codes_scanned=a[4], spans=a[5]
        )
    ),
    st.builds(encode_error, u32, st.integers(0, 255)),
    st.builds(lambda rid: encode_stats_request(rid), u32),
    st.builds(lambda rid: encode_stats(rid, {"pid": 1}), u32),
)


class TestDecoderFuzz:
    @settings(
        deadline=None, max_examples=200,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(frame=any_frame, data=st.data())
    def test_mutations_decode_or_raise_protocol_error(self, frame, data):
        """Truncate, bit-flip, or extend a valid payload: the decoder
        must come back with a frame or a ProtocolError — nothing else
        (no UnicodeDecodeError, TypeError, ValueError leaking from
        numpy/json internals)."""
        _, _, ftype, _ = FRAME_HEADER.unpack_from(frame)
        payload = bytearray(frame[FRAME_HEADER.size :])
        mode = data.draw(
            st.sampled_from(["truncate", "flip", "extend"]), label="mode"
        )
        if mode == "truncate" and payload:
            payload = payload[: data.draw(
                st.integers(0, len(payload) - 1), label="cut"
            )]
        elif mode == "flip" and payload:
            i = data.draw(st.integers(0, len(payload) - 1), label="byte")
            payload[i] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        else:
            payload += data.draw(
                st.binary(min_size=1, max_size=8), label="tail"
            )
        try:
            DECODERS[ftype](bytes(payload))
        except ProtocolError:
            pass


class TestHeaderFuzz:
    @settings(
        deadline=None, max_examples=300,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        header=st.binary(min_size=8, max_size=8)
        | st.builds(
            FRAME_HEADER.pack,
            st.sampled_from([WIRE_MAGIC, WIRE_MAGIC ^ 1]),
            st.sampled_from([WIRE_VERSION, WIRE_VERSION + 1]),
            st.integers(0, 255),
            u32,
        )
    )
    def test_any_header_parses_or_raises_protocol_error(self, header):
        """The one header check both readers call: any 8 bytes yield
        ``(type, length)`` or a ProtocolError — nothing else.  Built
        draws mix valid and invalid magic/version, so the type and length
        checks see traffic too."""
        try:
            ftype, length = parse_header(header)
        except ProtocolError:
            return
        assert ftype in DECODERS
        assert (ftype, length) == FRAME_HEADER.unpack(header)[2:]

"""Tests for the binary wire protocol (repro/serve/protocol.py)."""

import asyncio

import numpy as np
import pytest

from repro.net.wire import (
    ERR_QUOTA,
    FRAME_BATCH_RESULT,
    FRAME_ERROR,
    FRAME_HEADER,
    FRAME_PRESELECT,
    FRAME_RESULT,
    FRAME_SEARCH,
    FRAME_STATS,
    FRAME_STATS_REQUEST,
    MAX_FRAME_BYTES,
    WIRE_MAGIC,
    WIRE_VERSION,
    batch_result_frame_bytes,
    error_frame_bytes,
    preselect_frame_bytes,
    result_frame_bytes,
    search_frame_bytes,
    stats_frame_bytes,
    stats_request_frame_bytes,
)
from repro.obs.trace import SpanContext
from repro.serve.protocol import (
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
    read_frame,
)


def _payload(frame: bytes) -> bytes:
    return frame[FRAME_HEADER.size :]


class TestSearchRoundTrip:
    def test_all_fields_survive(self):
        q = np.arange(24, dtype=np.float32) * 0.125 - 1.0
        frame = encode_search(
            7, q, 10, 16, tenant="gold", priority=True
        )
        req = decode_search(_payload(frame))
        assert req.request_id == 7
        assert req.k == 10 and req.nprobe == 16
        assert req.tenant == "gold" and req.priority
        np.testing.assert_array_equal(req.query, q)

    def test_nprobe_none_and_defaults(self):
        frame = encode_search(0, np.zeros(4, dtype=np.float32), 1)
        req = decode_search(_payload(frame))
        assert req.nprobe is None
        assert req.tenant == "default" and not req.priority

    def test_query_bits_exact(self):
        """Denormals, infs, and negative zero cross the wire untouched."""
        q = np.array([1e-42, -0.0, np.inf, -np.inf, np.nan], dtype=np.float32)
        got = decode_search(_payload(encode_search(1, q, 5))).query
        assert got.tobytes() == q.tobytes()

    def test_wire_size_matches_model(self):
        """The byte count the net/ timing models charge is the real one."""
        q = np.zeros(32, dtype=np.float32)
        frame = encode_search(1, q, 10, 8, tenant="abc")
        assert len(frame) == search_frame_bytes(32, tenant_bytes=3)

    def test_validation(self):
        q = np.zeros(4, dtype=np.float32)
        with pytest.raises(ValueError, match="tenant"):
            encode_search(1, q, 5, tenant="x" * 256)
        with pytest.raises(ValueError, match="k must"):
            encode_search(1, q, 0)

    def test_truncated_and_length_mismatch(self):
        frame = encode_search(1, np.zeros(8, dtype=np.float32), 5)
        with pytest.raises(ProtocolError, match="truncated"):
            decode_search(_payload(frame)[:4])
        with pytest.raises(ProtocolError, match="implies"):
            decode_search(_payload(frame)[:-2])


class TestResultRoundTrip:
    def test_all_fields_survive(self):
        ids = np.array([5, -1, 123456789012], dtype=np.int64)
        dists = np.array([0.25, np.inf, -0.0], dtype=np.float32)
        frame = encode_result(
            42, ids, dists, queue_us=12.5, exec_us=100.0,
            batch_size=8, cache_hit=True, coverage=0.75,
        )
        res = decode_result(_payload(frame))
        assert res.request_id == 42
        assert res.ids.tobytes() == ids.tobytes()
        assert res.dists.tobytes() == dists.tobytes()
        assert res.queue_us == pytest.approx(12.5)
        assert res.exec_us == pytest.approx(100.0)
        assert res.batch_size == 8
        assert res.cache_hit and res.coverage == pytest.approx(0.75)

    def test_full_coverage_not_partial(self):
        frame = encode_result(
            1, np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.float32)
        )
        res = decode_result(_payload(frame))
        assert not res.cache_hit and res.coverage == 1.0

    def test_wire_size_matches_model(self):
        frame = encode_result(
            1, np.zeros(10, dtype=np.int64), np.zeros(10, dtype=np.float32)
        )
        assert len(frame) == result_frame_bytes(10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            encode_result(
                1, np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.float32)
            )

    def test_length_mismatch(self):
        frame = encode_result(
            1, np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.float32)
        )
        with pytest.raises(ProtocolError, match="implies"):
            decode_result(_payload(frame)[:-1])


class TestErrorRoundTrip:
    def test_all_fields_survive(self):
        frame = encode_error(
            9, ERR_QUOTA, retry_after_s=1.5, message="quota exhausted"
        )
        err = decode_error(_payload(frame))
        assert err.request_id == 9 and err.code == ERR_QUOTA
        assert err.retry_after_s == pytest.approx(1.5)
        assert err.message == "quota exhausted"

    def test_wire_size_matches_model(self):
        frame = encode_error(1, ERR_QUOTA, message="abc")
        assert len(frame) == error_frame_bytes(3)

    def test_truncated(self):
        frame = encode_error(1, ERR_QUOTA, message="hello")
        with pytest.raises(ProtocolError, match="implies"):
            decode_error(_payload(frame)[:-1])


class TestPreselectRoundTrip:
    def test_all_fields_survive(self):
        qt = np.arange(2 * 8, dtype=np.float32).reshape(2, 8) * 0.5 - 3.0
        probed = np.array([[3, 0, -1], [7, -1, -1]], dtype=np.int64)
        frame = encode_preselect(11, qt, probed, 5)
        req = decode_preselect(_payload(frame))
        assert req.request_id == 11 and req.k == 5
        assert req.queries_t.tobytes() == qt.tobytes()
        np.testing.assert_array_equal(req.probed, probed)
        assert req.probed.dtype == np.int32

    def test_frame_type_and_wire_size_match_model(self):
        """The byte count the net/ timing models charge is the real one."""
        qt = np.zeros((16, 48), dtype=np.float32)
        probed = np.zeros((16, 8), dtype=np.int64)
        frame = encode_preselect(1, qt, probed, 10)
        header = FRAME_HEADER.unpack(frame[: FRAME_HEADER.size])
        assert header[2] == FRAME_PRESELECT
        assert len(frame) == preselect_frame_bytes(16, 8, 48)

    def test_validation(self):
        qt = np.zeros((2, 4), dtype=np.float32)
        probed = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="k must"):
            encode_preselect(1, qt, probed, 0)
        with pytest.raises(ValueError, match="rows"):
            encode_preselect(1, qt, probed[:1], 5)

    def test_length_mismatch(self):
        frame = encode_preselect(
            1, np.zeros((2, 4), dtype=np.float32),
            np.zeros((2, 3), dtype=np.int64), 5,
        )
        with pytest.raises(ProtocolError, match="truncated|implies"):
            decode_preselect(_payload(frame)[:-2])


class TestBatchResultRoundTrip:
    def test_all_fields_survive(self):
        ids = np.array([[5, -1], [123456789012, 8]], dtype=np.int64)
        dists = np.array([[0.25, np.inf], [-0.0, 1.5]], dtype=np.float32)
        frame = encode_batch_result(
            21, ids, dists, exec_us=340.0, codes_scanned=9876
        )
        res = decode_batch_result(_payload(frame))
        assert res.request_id == 21
        assert res.ids.tobytes() == ids.tobytes()
        assert res.dists.tobytes() == dists.tobytes()
        assert res.exec_us == pytest.approx(340.0)
        assert res.codes_scanned == 9876

    def test_frame_type_and_wire_size_match_model(self):
        ids = np.zeros((16, 10), dtype=np.int64)
        dists = np.zeros((16, 10), dtype=np.float32)
        frame = encode_batch_result(1, ids, dists)
        header = FRAME_HEADER.unpack(frame[: FRAME_HEADER.size])
        assert header[2] == FRAME_BATCH_RESULT
        assert len(frame) == batch_result_frame_bytes(16, 10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            encode_batch_result(
                1, np.zeros((2, 3), dtype=np.int64),
                np.zeros((2, 2), dtype=np.float32),
            )

    def test_length_mismatch(self):
        frame = encode_batch_result(
            1, np.zeros((2, 4), dtype=np.int64),
            np.zeros((2, 4), dtype=np.float32),
        )
        with pytest.raises(ProtocolError, match="truncated|implies"):
            decode_batch_result(_payload(frame)[:-1])


class TestTracedFrames:
    """The flag-gated trace-context tail on search/preselect frames."""

    CTX = SpanContext(trace_id=0x1234_5678_9ABC_DEF0, span_id=(1 << 63) | 7)

    def test_search_trace_context_survives(self):
        q = np.arange(8, dtype=np.float32)
        frame = encode_search(3, q, 5, 4, tenant="t", trace=self.CTX)
        req = decode_search(_payload(frame))
        assert req.trace == self.CTX and req.trace.sampled
        np.testing.assert_array_equal(req.query, q)
        assert req.tenant == "t"

    def test_preselect_trace_context_survives(self):
        qt = np.zeros((2, 4), dtype=np.float32)
        probed = np.zeros((2, 3), dtype=np.int64)
        frame = encode_preselect(4, qt, probed, 5, trace=self.CTX)
        req = decode_preselect(_payload(frame))
        assert req.trace == self.CTX

    def test_untraced_frames_byte_identical(self):
        """An unsampled or absent context adds zero bytes to the wire."""
        q = np.zeros(8, dtype=np.float32)
        plain = encode_search(1, q, 5)
        unsampled = SpanContext(trace_id=9, span_id=9, sampled=False)
        assert encode_search(1, q, 5, trace=unsampled) == plain
        assert decode_search(_payload(plain)).trace is None

    def test_traced_wire_size_matches_model(self):
        q = np.zeros(16, dtype=np.float32)
        frame = encode_search(1, q, 5, tenant="ab", trace=self.CTX)
        assert len(frame) == search_frame_bytes(16, tenant_bytes=2, traced=True)
        qt = np.zeros((4, 16), dtype=np.float32)
        probed = np.zeros((4, 6), dtype=np.int64)
        pframe = encode_preselect(1, qt, probed, 5, trace=self.CTX)
        assert len(pframe) == preselect_frame_bytes(4, 6, 16, traced=True)

    def test_traced_truncation_rejected(self):
        frame = encode_search(1, np.zeros(4, dtype=np.float32), 5, trace=self.CTX)
        with pytest.raises(ProtocolError, match="truncated|implies"):
            decode_search(_payload(frame)[:-3])


class TestBatchResultSpans:
    """The piggybacked worker-span blob on batch-result frames."""

    SPANS = (
        {"name": "worker_scan", "trace": 1, "span": 2, "parent": None,
         "pid": 99, "tid": 1, "ts": 1000, "dur": 50},
        {"name": "ivf_pq_scan", "trace": 1, "span": 3, "parent": 2,
         "pid": 99, "tid": 1, "ts": 1010, "dur": 20, "args": {"codes": 7}},
    )

    def test_spans_survive(self):
        ids = np.zeros((2, 4), dtype=np.int64)
        dists = np.zeros((2, 4), dtype=np.float32)
        frame = encode_batch_result(1, ids, dists, spans=self.SPANS)
        res = decode_batch_result(_payload(frame))
        assert list(res.spans) == list(self.SPANS)
        assert res.ids.tobytes() == ids.tobytes()

    def test_no_spans_is_byte_identical_to_pre_trace_wire(self):
        ids = np.zeros((2, 4), dtype=np.int64)
        dists = np.zeros((2, 4), dtype=np.float32)
        plain = encode_batch_result(1, ids, dists)
        assert encode_batch_result(1, ids, dists, spans=()) == plain
        assert decode_batch_result(_payload(plain)).spans == ()

    def test_wire_size_matches_model(self):
        import json as _json

        ids = np.zeros((3, 5), dtype=np.int64)
        dists = np.zeros((3, 5), dtype=np.float32)
        frame = encode_batch_result(1, ids, dists, spans=self.SPANS)
        blob = len(_json.dumps(list(self.SPANS), separators=(",", ":")).encode())
        assert len(frame) == batch_result_frame_bytes(3, 5, span_bytes=blob)

    def test_corrupt_span_blob_rejected(self):
        ids = np.zeros((1, 2), dtype=np.int64)
        dists = np.zeros((1, 2), dtype=np.float32)
        frame = bytearray(encode_batch_result(1, ids, dists, spans=self.SPANS))
        frame[-5] ^= 0xFF  # flip a byte inside the JSON blob
        with pytest.raises(ProtocolError):
            decode_batch_result(_payload(bytes(frame)))


class TestStatsFrames:
    """The stats request/response pair (the metrics scrape)."""

    def test_request_round_trip(self):
        frame = encode_stats_request(17)
        header = FRAME_HEADER.unpack(frame[: FRAME_HEADER.size])
        assert header[2] == FRAME_STATS_REQUEST
        assert decode_stats_request(_payload(frame)).request_id == 17
        # The request is its id alone; a trailing byte is rejected.
        with pytest.raises(ProtocolError):
            decode_stats_request(_payload(frame) + b"\x01")

    def test_response_round_trip(self):
        data = {"pid": 123, "metrics": {"counters": {"completed": 4}},
                "spans": [{"name": "worker_scan", "span": 1}]}
        frame = encode_stats(17, data)
        header = FRAME_HEADER.unpack(frame[: FRAME_HEADER.size])
        assert header[2] == FRAME_STATS
        res = decode_stats(_payload(frame))
        assert res.request_id == 17 and res.data == data

    def test_wire_sizes_match_model(self):
        import json as _json

        assert len(encode_stats_request(1)) == stats_request_frame_bytes()
        data = {"pid": 1}
        blob = len(_json.dumps(data, separators=(",", ":")).encode())
        assert len(encode_stats(1, data)) == stats_frame_bytes(blob)

    def test_non_dict_payload_rejected(self):
        frame = encode_stats(1, {"ok": True})
        payload = bytearray(_payload(frame))
        bad = payload.replace(b'{"ok":true}', b'["ok",true]')
        with pytest.raises(ProtocolError):
            decode_stats(bytes(bad))

    def test_read_frame_dispatches_stats_types(self):
        frame = encode_stats_request(5)
        ftype, payload = _read_one(frame)
        assert ftype == FRAME_STATS_REQUEST
        assert decode_stats_request(payload).request_id == 5


def _read_one(data: bytes):
    """Feed bytes + EOF into a StreamReader and read one frame."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(go())


class TestReadFrame:
    def test_reads_a_valid_frame(self):
        frame = encode_search(3, np.zeros(4, dtype=np.float32), 5, 2)
        ftype, payload = _read_one(frame)
        assert ftype == FRAME_SEARCH
        assert decode_search(payload).request_id == 3

    def test_clean_eof_returns_none(self):
        assert _read_one(b"") is None

    def test_eof_mid_header(self):
        with pytest.raises(ProtocolError, match="mid-header"):
            _read_one(b"\x01\x02\x03")

    def test_eof_mid_payload(self):
        frame = encode_search(1, np.zeros(8, dtype=np.float32), 5)
        with pytest.raises(ProtocolError, match="mid-payload"):
            _read_one(frame[:-4])

    def test_bad_magic(self):
        bad = FRAME_HEADER.pack(0xDEAD, WIRE_VERSION, FRAME_RESULT, 0)
        with pytest.raises(ProtocolError, match="magic"):
            _read_one(bad)

    def test_version_mismatch(self):
        bad = FRAME_HEADER.pack(WIRE_MAGIC, WIRE_VERSION + 1, FRAME_ERROR, 0)
        with pytest.raises(ProtocolError, match="protocol v"):
            _read_one(bad)

    def test_unknown_frame_type(self):
        bad = FRAME_HEADER.pack(WIRE_MAGIC, WIRE_VERSION, 0x7F, 0)
        with pytest.raises(ProtocolError, match="unknown frame type"):
            _read_one(bad)

    def test_oversized_length_rejected_before_buffering(self):
        bad = FRAME_HEADER.pack(
            WIRE_MAGIC, WIRE_VERSION, FRAME_SEARCH, MAX_FRAME_BYTES + 1
        )
        with pytest.raises(ProtocolError, match="exceeds"):
            _read_one(bad)

    def test_back_to_back_frames(self):
        f1 = encode_search(1, np.zeros(4, dtype=np.float32), 5)
        f2 = encode_error(2, ERR_QUOTA)

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(f1 + f2)
            reader.feed_eof()
            first = await read_frame(reader)
            second = await read_frame(reader)
            third = await read_frame(reader)
            return first, second, third

        (t1, _), (t2, p2), t3 = asyncio.run(go())
        assert t1 == FRAME_SEARCH and t2 == FRAME_ERROR and t3 is None
        assert decode_error(p2).request_id == 2


class _EchoBackend:
    """Deterministic stand-in: ids derive from the query's first value."""

    def search_batch(self, queries, k, nprobe=None):
        queries = np.atleast_2d(queries)
        base = queries[:, 0].astype(np.int64)[:, None]
        ids = base * 100 + np.arange(k, dtype=np.int64)[None, :]
        dists = np.tile(np.arange(k, dtype=np.float32), (queries.shape[0], 1))
        return ids, dists


class TestServerFrameFuzz:
    def test_corrupt_frames_cost_at_most_their_own_connection(self):
        """Seeded truncation/bit-flip fuzz against a live server: every
        corrupt frame either still parses (the flip hit a don't-care
        byte — the request is served) or drops exactly that connection
        with one protocol error counted.  The server survives all of it
        and keeps serving well-formed clients."""
        import random

        from repro.serve.aio import AsyncClient, VectorSearchServer
        from repro.serve.scheduler import ServingEngine

        rng = random.Random(0xC0FFEE)
        base = encode_search(7, np.ones(8, dtype=np.float32), 5, 2)
        variants = []
        for _ in range(16):
            b = bytearray(base)
            if rng.random() < 0.4:
                del b[rng.randrange(1, len(b)) :]  # truncate
            else:
                b[rng.randrange(len(b))] ^= 1 << rng.randrange(8)  # flip
            variants.append(bytes(b))

        outcomes = {"served": 0, "dropped": 0}

        async def go():
            engine = ServingEngine(_EchoBackend(), max_batch=4, policy="shed")
            with engine:
                async with VectorSearchServer(engine) as server:
                    host, port = server.address
                    for corrupt in variants:
                        reader, writer = await asyncio.open_connection(
                            host, port
                        )
                        writer.write(corrupt)
                        if len(corrupt) < len(base):
                            # Truncated frame: the server is waiting for
                            # the rest; EOF it to force the judgement.
                            writer.write_eof()
                        await writer.drain()
                        reply = await read_frame(reader)
                        if reply is None:
                            outcomes["dropped"] += 1
                        else:
                            outcomes["served"] += 1
                            assert reply[0] in (FRAME_RESULT, FRAME_ERROR)
                        writer.close()
                        await writer.wait_closed()
                    # After all that abuse: still serving, bit-exact.
                    async with await AsyncClient.connect(host, port) as client:
                        res = await client.search(
                            np.ones(8, dtype=np.float32), 5
                        )
                        np.testing.assert_array_equal(
                            res.ids, 100 + np.arange(5, dtype=np.int64)
                        )
                    counters = dict(server.metrics.snapshot().counters)
            return counters

        counters = asyncio.run(go())
        assert outcomes["served"] + outcomes["dropped"] == len(variants)
        assert outcomes["dropped"] > 0  # the corpus really corrupted frames
        # One protocol error per dropped connection, none extra.
        assert counters.get("protocol_errors", 0) == outcomes["dropped"]

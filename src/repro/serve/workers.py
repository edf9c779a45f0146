"""Multi-process data plane: mmap shard workers behind local sockets.

Every serving tier so far — packed CSR scans, R×S topologies, QoS, the
asyncio front end — runs in one GIL-bound process, so real CPU-bound ADC
scans serialize no matter how many "devices" the topology models.  This
module is the honest software analogue of the paper's one-accelerator-
per-shard layout: **one OS process per shard**, each memory-mapping the
same format-v2 index directory read-only (:func:`repro.ann.io.load_index_dir`)
so all workers share a single physical copy of the packed arrays, and
serving the existing length-prefixed protocol
(:mod:`repro.serve.protocol`) over local TCP.

Three pieces:

- :func:`worker_main` — the worker process entry point
  (``python -m repro.serve.workers``): mmap the index directory, take
  shard ``i`` of ``n`` (:func:`repro.ann.partition.partition_index` —
  deterministic, so every process derives the same layout from the same
  arguments), print one JSON readiness line on stdout, and serve it
  until stdin closes (graceful) or SIGTERM.  Like a FANNS node, a
  worker is one scan pipeline behind a socket: its engine-less
  :class:`~repro.serve.aio.VectorSearchServer` takes planned batches
  (preselect frames) and stats frames only; batching and admission stay
  with the router.
- :class:`WorkerPool` — the supervisor: spawns the R×S worker grid
  (S shards × R replicas per shard), performs the readiness handshake
  (bound port, dimensionality, shard size), detects crashed workers
  (:meth:`WorkerPool.poll`), injects faults (:meth:`WorkerPool.kill`),
  runs the optional recovery loop (:meth:`WorkerPool.start_supervisor` —
  respawn with crash-loop backoff, re-handshake, atomically re-register
  the recovered backend), and shuts down gracefully by closing each
  worker's stdin before escalating to terminate/kill.
- :class:`RemoteBackend` — the router-side client: a blocking socket
  serving ``search_batch_preselected`` (one preselect frame out, one
  batch-result frame back), so a planned
  :class:`~repro.serve.routing.ShardedBackend` scatter-gathers to worker
  processes as it does to in-process shards — including degraded mode
  (a dead worker's socket errors become coverage holes, not failures).

**Invariant (bit-identical results).**  Workers scan
:func:`partition_index` shard views of the same saved index with the
router's plan, and ids/dists cross the wire as raw i64/f32 — a
scatter-gathered answer equals single-process ``IVFPQIndex.search`` bit
for bit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.ann.io import load_index_dir
from repro.ann.partition import partition_index, prune_probed_cells, shard_cell_sizes
from repro.net.wire import FRAME_BATCH_RESULT, FRAME_ERROR, FRAME_STATS
from repro.obs.trace import Tracer, current_span
from repro.serve.aio import VectorSearchServer
from repro.serve.protocol import (
    HEADER_SIZE,
    ProtocolError,
    decode_batch_result,
    decode_error,
    decode_stats,
    encode_preselect,
    encode_stats_request,
    parse_header,
    remote_exception,
    request_id_of,
)
from repro.serve.backends import BackendUnavailableError
from repro.serve.routing import ReplicaSet, ShardedBackend

__all__ = [
    "RemoteBackend",
    "RestartRecord",
    "WorkerInfo",
    "WorkerPool",
    "worker_main",
]

#: Socket timeout per router<->worker exchange, seconds.  Local sockets
#: answer in microseconds; anything near this bound means the worker is
#: wedged and the call should fail into degraded mode.
RPC_TIMEOUT_S = 120.0
#: Extra exchange attempts after a transport failure, each on a freshly
#: dialed connection.  A dropped connection to a *live* worker (e.g. the
#: worker shed the socket after a protocol error on it) heals
#: transparently instead of failing the scatter; a dead worker refuses
#: the dial immediately, so retries stay cheap.
RECONNECT_ATTEMPTS = 1
#: Base sleep between reconnect attempts, doubled per attempt.
RECONNECT_BACKOFF_S = 0.05


class RemoteBackend:
    """Blocking protocol client for one shard worker's socket.

    Serves the preselect extension of the backend contract,
    ``search_batch_preselected`` (a worker takes plans only; there is no
    plain ``search_batch``), so a
    :class:`~repro.serve.routing.ShardedBackend` with a router-side
    planner treats a worker process like an in-process shard.  One
    connection, one outstanding exchange:
    calls are serialized on an internal lock — the
    :class:`~repro.serve.routing.ShardedBackend` scatter gives each
    shard its own thread, and socket I/O releases the GIL, so S remote
    shards genuinely compute in parallel even though each backend
    object is serial.

    Parameters
    ----------
    host, port : the worker's bound address (from the pool handshake).
    d : advertised query dimensionality.
    ntotal : advertised vector count (coverage weights).
    cell_sizes : per-cell sizes of the worker's shard; when given, each
        plan is pruned to the cells this shard can actually contribute
        to (empty slots become ``-1`` on the wire).

    Every exchange times out after :data:`RPC_TIMEOUT_S` (a wedged
    worker fails the call; degraded mode turns that into a coverage
    hole) and a transport failure is retried :data:`RECONNECT_ATTEMPTS`
    times on a fresh dial.

    **Typed errors**: every transport failure — reset, refused dial,
    broken pipe, timeout, malformed frames — surfaces as
    :class:`~repro.serve.backends.BackendUnavailableError` after the
    retry budget, never as a raw socket exception, so replica failover
    and ``on_shard_error="degrade"`` always engage.  An error frame
    answering a call raises the exception the worker's scan raised
    (:func:`~repro.serve.protocol.remote_exception`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        d: int | None = None,
        ntotal: int | None = None,
        cell_sizes: np.ndarray | None = None,
    ):
        self.host = host
        self.port = port
        self.d = d
        self.ntotal = ntotal
        self.cell_sizes = cell_sizes
        self._lock = threading.Lock()
        self._rid = 0
        self._closed = False
        self._sock: socket.socket | None = None
        self._connect()
        #: Lifetime counters (observability; read without a lock).
        self.codes_scanned = 0
        self.reconnects = 0

    # ------------------------------------------------------------------ #
    def _connect(self) -> None:
        """Dial the worker (caller holds the lock, or is ``__init__``)."""
        sock = socket.create_connection((self.host, self.port), timeout=RPC_TIMEOUT_S)
        # Frames are small and latency-bound: never wait for Nagle.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    def _drop_socket(self) -> None:
        """Close a (possibly broken) connection; next exchange re-dials."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def reconnect(self, host: str | None = None, port: int | None = None) -> None:
        """Re-point at a (re)spawned worker and dial it eagerly.

        The supervisor's re-registration hook: a respawned worker binds a
        fresh port, so after its readiness handshake the pool re-points
        the *same* backend object here — every routing tier holding a
        reference (replica sets, sharded scatter) recovers atomically,
        with no membership surgery.  Also clears a prior :meth:`close`.
        """
        with self._lock:
            self._drop_socket()
            if host is not None:
                self.host = host
            if port is not None:
                self.port = port
            self._closed = False
            self._connect()
            self.reconnects += 1

    def _exchange(self, body):
        """Run ``body(rid)`` — one framed exchange under a fresh request
        id — with reconnect-on-transport-failure.

        Serializes on the backend lock, dialing lazily.  Transport
        failures (socket errors and frame-alignment errors alike) drop
        the connection and retry on a fresh dial up to the budget, then
        raise :class:`BackendUnavailableError`.  A timeout means the
        worker is wedged, not gone — retrying would double the stall, so
        it fails straight into the typed path.  Application errors
        (shed/quota/server-side failures) pass through untouched.
        """
        with self._lock:
            last: Exception | None = None
            for attempt in range(RECONNECT_ATTEMPTS + 1):
                if self._closed:
                    raise BackendUnavailableError(
                        f"backend {self.host}:{self.port} is closed"
                    )
                if attempt:
                    time.sleep(RECONNECT_BACKOFF_S * (1 << (attempt - 1)))
                try:
                    if self._sock is None:
                        self._connect()
                    rid = self._rid
                    self._rid = (rid + 1) & 0xFFFFFFFF
                    return body(rid)
                except TimeoutError as exc:
                    self._drop_socket()
                    raise BackendUnavailableError(
                        f"worker {self.host}:{self.port} did not answer "
                        f"within {RPC_TIMEOUT_S:.0f}s"
                    ) from exc
                except (OSError, ProtocolError) as exc:
                    last = exc
                    self._drop_socket()
            raise BackendUnavailableError(
                f"worker {self.host}:{self.port} unavailable after "
                f"{RECONNECT_ATTEMPTS + 1} attempt(s): {last}"
            ) from last

    def _read_exact(self, n: int) -> bytes:
        """Read exactly ``n`` bytes or raise ``ConnectionResetError``
        (a socket timeout raises ``TimeoutError``)."""
        chunks = []
        while n:
            b = self._sock.recv(min(n, 1 << 20))
            if not b:
                raise ConnectionResetError(
                    f"worker {self.host}:{self.port} closed the connection"
                )
            chunks.append(b)
            n -= len(b)
        return b"".join(chunks)

    def _reply(self, rid: int, ftype: int) -> bytes:
        """The ``ftype`` payload answering ``rid``; raises an error reply.

        The one reply matcher of every exchange.  A frame carrying
        another request id is a stale reply to an earlier failed call
        and is skipped, whatever its type.  An error frame answering
        ``rid`` raises its mapped exception; a frame of any other type
        than ``ftype`` answering it is a :class:`ProtocolError`.
        """
        while True:
            got, length = parse_header(self._read_exact(HEADER_SIZE))
            payload = self._read_exact(length)
            if request_id_of(payload) != rid:
                continue
            if got == FRAME_ERROR:
                raise remote_exception(decode_error(payload))
            if got != ftype:
                raise ProtocolError(
                    f"worker answered request {rid} with frame type 0x{got:02x}"
                )
            return payload

    # ------------------------------------------------------------------ #
    def search_batch_preselected(
        self, queries_t: np.ndarray, probed: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Serve one router-preselected batch over a single scatter frame.

        The plan is pruned to this shard's cells when the backend knows
        them (:attr:`cell_sizes`), charged on the wire as one preselect
        frame in and one batch-result frame out — the preselect-once
        data path (coarse quantization already happened, once, at the
        router).
        """
        if self.cell_sizes is not None:
            probed = prune_probed_cells(probed, self.cell_sizes)
        # Propagate the active span (the scatter's shard_rpc) over the
        # wire; the worker's spans come back piggybacked on the reply.
        span = current_span()
        ctx = span.context() if span else None

        def body(rid):
            self._sock.sendall(
                encode_preselect(rid, queries_t, probed, k, trace=ctx)
            )
            res = decode_batch_result(self._reply(rid, FRAME_BATCH_RESULT))
            self.codes_scanned += res.codes_scanned
            if res.spans and span:
                span.tracer.ingest(res.spans)
            # Copy out of the payload buffer: callers may hold these past
            # the next exchange.
            return (
                np.array(res.ids, dtype=np.int64),
                np.array(res.dists, dtype=np.float32),
            )

        return self._exchange(body)

    def stats(self) -> dict:
        """Scrape the worker's metrics snapshot over the stats frame pair.

        Returns the worker's JSON view: its pid, its full
        :class:`~repro.serve.metrics.MetricsRegistry` snapshot and its
        tracer's dropped-span count.
        """
        def body(rid):
            self._sock.sendall(encode_stats_request(rid))
            return decode_stats(self._reply(rid, FRAME_STATS)).data

        return self._exchange(body)

    def close(self) -> None:
        """Close the connection (idempotent); later calls raise
        :class:`BackendUnavailableError` until :meth:`reconnect`."""
        with self._lock:
            self._closed = True
            self._drop_socket()


class _PoolRouter(ShardedBackend):
    """The scatter over a pool's workers: every call ships a plan.

    Workers scan plans only, and a plan needs ``nprobe``, so a call
    without one is refused up front (in degrade mode too, where per-shard
    failures would read as lost coverage).
    """

    def search_batch(
        self, queries: np.ndarray, k: int, nprobe: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scatter one planned batch (see :class:`ShardedBackend`)."""
        if nprobe is None:
            raise ValueError(
                "a worker pool's router needs an explicit nprobe: workers "
                "scan router-preselected plans only"
            )
        return super().search_batch(queries, k, nprobe)


# --------------------------------------------------------------------- #
# Supervisor.


@dataclass(frozen=True)
class WorkerInfo:
    """One spawned worker's handshake: where it listens, what it holds."""

    shard: int
    host: str
    port: int
    d: int
    ntotal: int
    replica: int = 0


@dataclass(frozen=True)
class RestartRecord:
    """One completed supervised restart (observability + chaos asserts)."""

    shard: int
    replica: int
    #: SIGKILL → -9 etc.: how the dead worker exited.
    exit_code: int
    #: Spawn attempts the restart took (> 1 means crash-loop backoff ran).
    attempts: int
    #: Death detected → recovered backend re-registered, microseconds —
    #: the router's time back to full coverage for this worker's shard.
    coverage_restored_us: float


def _worker_env() -> dict[str, str]:
    """Child-process environment: importable ``repro``, one BLAS thread.

    The package root is prepended to ``PYTHONPATH`` (tests run with
    ``sys.path`` injection, which children do not inherit), and BLAS
    thread pools are pinned to one thread so N workers do not
    oversubscribe the host with N×threads — the scan path is
    single-threaded NumPy; parallelism comes from the processes
    themselves.
    """
    env = os.environ.copy()
    pkg_root = str(Path(__file__).resolve().parents[2])
    parts = [pkg_root]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class WorkerPool:
    """Spawns and supervises an R×S grid of mmap worker processes.

    ``n_workers`` is the shard count S; ``replicas`` spawns R identical
    processes per shard (each derives the *same* deterministic shard
    from the same arguments), so the grid holds R×S workers.  ``start()``
    (or entering the context manager) launches them all over the same
    saved index directory and blocks until every worker's readiness
    handshake (a JSON line on its stdout carrying the bound port) or the
    startup timeout.  Because shard layout is deterministic in
    ``(index_dir, shard, n_workers)``, no index data ever crosses the
    control channel — each worker memory-maps the one physical copy.

    :meth:`sharded_backend` wires the grid behind the routing tier and
    a router-side coarse planner (workers take preselect plans only):
    with R > 1 each shard column becomes a
    :class:`~repro.serve.routing.ReplicaSet` of :class:`RemoteBackend`
    clients, so a dead replica fails over inside its column without
    costing coverage.

    :meth:`start_supervisor` runs the recovery loop: poll for dead
    workers, respawn each with crash-loop backoff under a capped retry
    budget, re-run the readiness handshake, then atomically re-register
    the recovered worker by re-pointing its existing backend object at
    the new port (:meth:`RemoteBackend.reconnect`) — the router returns
    to full coverage with zero failed requests, and every completed
    recovery is recorded in :attr:`restart_log` (``worker_restarts`` /
    ``coverage_restored_us`` land in the supervisor's metrics registry
    when one is given).

    Each worker memory-maps the index, scans the router's batches one at
    a time (batching and admission stay with the router) and runs one
    BLAS thread; ``startup_timeout_s`` bounds the readiness handshake,
    and every router↔worker exchange times out after
    :data:`RPC_TIMEOUT_S`.

    Shutdown is graceful-first: :meth:`stop` closes each worker's stdin
    (the worker closes its server and exits 0), then escalates to
    SIGTERM and SIGKILL on the stragglers — including any half-started
    respawn the supervisor had in flight.  :meth:`kill` is the fault
    injector — SIGKILL mid-run, as a crash regression test needs — and
    :meth:`poll` reports workers that died for any reason.
    """

    def __init__(
        self,
        index_dir: str | Path,
        n_workers: int,
        *,
        replicas: int = 1,
        host: str = "127.0.0.1",
        startup_timeout_s: float = 120.0,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.index_dir = Path(index_dir)
        if not (self.index_dir / "meta.npz").exists():
            raise FileNotFoundError(
                f"{self.index_dir} is not a saved index directory "
                f"(missing meta.npz; see repro.ann.io.save_index_dir)"
            )
        self.n_workers = n_workers
        self.replicas = replicas
        self.host = host
        self.startup_timeout_s = startup_timeout_s
        #: Current occupant of each worker slot, shard-major
        #: (``wid = shard * replicas + replica``).
        self._procs: list[subprocess.Popen] = []
        #: Every process this pool ever spawned, including replaced ones
        #: (leak audits: all must be reaped after :meth:`stop`).
        self.spawned_procs: list[subprocess.Popen] = []
        self.workers: list[WorkerInfo] = []
        self._backends: list[RemoteBackend] = []
        self._cell_sizes: np.ndarray | None = None
        self._env: dict[str, str] | None = None
        #: Per-shard replica groups built by :meth:`sharded_backend`
        #: (R > 1 only) — the supervisor's mark-down/mark-up targets.
        self._groups: list[ReplicaSet] | None = None
        # Supervisor state.
        self._supervisor: threading.Thread | None = None
        self._stop_ev = threading.Event()
        #: Serializes spawns against stop(): no respawn may slip in after
        #: the shutdown sweep starts.
        self._spawn_lock = threading.Lock()
        #: Completed supervised recoveries, in completion order.
        self.restart_log: list[RestartRecord] = []
        #: Slots the supervisor gave up on (retry budget exhausted).
        self.restart_failures: list[dict] = []
        self._given_up: set[int] = set()
        self._sup_metrics = None
        self._sup_tracer = None
        self._sup_events = None
        self._sup_max_restarts = 5
        self._sup_backoff_s = 0.05

    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        """Whether the pool has completed its readiness handshake."""
        return bool(self.workers)

    #: Worker bootstrap: ``-c`` rather than ``-m repro.serve.workers``,
    #: because runpy would re-execute a module the ``repro.serve``
    #: package already imported (and warn about it on every spawn).
    _BOOTSTRAP = (
        "import sys; from repro.serve.workers import worker_main; "
        "sys.exit(worker_main(sys.argv[1:]))"
    )

    def _spawn_cmd(self, shard: int) -> list[str]:
        """The child-process command line for one shard worker."""
        return [
            sys.executable, "-c", self._BOOTSTRAP,
            "--index-dir", str(self.index_dir),
            "--shard", str(shard),
            "--workers", str(self.n_workers),
            "--host", self.host,
            "--port", "0",
        ]

    @staticmethod
    def _read_line(proc: subprocess.Popen, timeout_s: float) -> str | None:
        """One stdout line from ``proc`` within ``timeout_s`` (else None).

        A daemon thread does the blocking read: if the deadline passes,
        the supervisor kills the worker, which EOFs the pipe and lets
        the thread exit — no file-descriptor tricks needed.
        """
        box: dict[str, str] = {}

        def read() -> None:
            box["line"] = proc.stdout.readline()

        t = threading.Thread(target=read, daemon=True)
        t.start()
        t.join(timeout_s)
        return box.get("line")

    # ------------------------------------------------------------------ #
    @property
    def n_procs(self) -> int:
        """Total worker processes in the grid (shards × replicas)."""
        return self.n_workers * self.replicas

    def _wid(self, shard: int, replica: int = 0) -> int:
        """Flat slot index of worker ``(shard, replica)`` (shard-major)."""
        if not 0 <= shard < self.n_workers:
            raise IndexError(f"shard {shard} not in [0, {self.n_workers})")
        if not 0 <= replica < self.replicas:
            raise IndexError(f"replica {replica} not in [0, {self.replicas})")
        return shard * self.replicas + replica

    def _slot(self, wid: int) -> tuple[int, int]:
        """``(shard, replica)`` of flat slot ``wid``."""
        return divmod(wid, self.replicas)

    def _spawn(self, shard: int) -> subprocess.Popen:
        """Launch one worker process for ``shard`` (any replica slot)."""
        if self._env is None:
            self._env = _worker_env()
        proc = subprocess.Popen(
            self._spawn_cmd(shard),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=self._env,
            text=True,
        )
        self.spawned_procs.append(proc)
        return proc

    def _handshake(
        self, proc: subprocess.Popen, shard: int, replica: int, timeout_s: float
    ) -> WorkerInfo:
        """Read one worker's readiness line; raise ``RuntimeError`` if it
        dies, times out, or answers garbage before becoming ready."""
        line = self._read_line(proc, timeout_s) if timeout_s > 0 else None
        if not line:
            raise RuntimeError(
                f"worker {shard}.{replica} did not become ready within "
                f"{max(timeout_s, 0):.0f}s (exit code {proc.poll()})"
            )
        try:
            ready = json.loads(line)
        except json.JSONDecodeError:
            raise RuntimeError(
                f"worker {shard}.{replica} sent a bad readiness line: {line!r}"
            ) from None
        return WorkerInfo(
            shard=shard,
            replica=replica,
            host=ready["host"],
            port=int(ready["port"]),
            d=int(ready["d"]),
            ntotal=int(ready["ntotal"]),
        )

    def start(self) -> "WorkerPool":
        """Spawn the full R×S grid and complete every readiness handshake."""
        if self.started:
            raise RuntimeError("pool already started")
        for shard in range(self.n_workers):
            for _replica in range(self.replicas):
                self._procs.append(self._spawn(shard))
        deadline = time.perf_counter() + self.startup_timeout_s
        infos: list[WorkerInfo] = []
        try:
            for wid, proc in enumerate(self._procs):
                shard, replica = self._slot(wid)
                remaining = deadline - time.perf_counter()
                infos.append(self._handshake(proc, shard, replica, remaining))
        except BaseException:
            self._terminate_all()
            raise
        self.workers = infos
        return self

    def __enter__(self) -> "WorkerPool":
        """Context entry: start the pool."""
        return self.start()

    def __exit__(self, *exc) -> None:
        """Context exit: stop every worker."""
        self.stop()

    # ------------------------------------------------------------------ #
    def _shard_sizes(self, shard: int) -> np.ndarray:
        """Shard ``shard``'s per-cell sizes, from the saved offsets alone."""
        if self._cell_sizes is None:
            offsets = np.load(self.index_dir / "offsets.npy", mmap_mode="r")
            self._cell_sizes = np.diff(np.asarray(offsets, dtype=np.int64))
        return shard_cell_sizes(self._cell_sizes, shard, self.n_workers)

    def backends(self) -> list[RemoteBackend]:
        """One connected :class:`RemoteBackend` per worker (cached).

        Flat, shard-major (``wid`` order).  Each carries its shard's
        per-cell sizes (derived locally from the saved offsets — shard
        layout is deterministic) so preselect scatters carry per-shard
        cell subsets.
        """
        if not self.started:
            raise RuntimeError("pool is not started")
        if not self._backends:
            self._backends = [
                RemoteBackend(
                    w.host, w.port,
                    d=w.d, ntotal=w.ntotal,
                    cell_sizes=self._shard_sizes(w.shard),
                )
                for w in self.workers
            ]
        return self._backends

    def sharded_backend(
        self,
        *,
        preselect,
        on_shard_error: str = "raise",
        policy: str = "least-loaded",
        seed: int = 0,
    ) -> ShardedBackend:
        """The routing tier over this pool's workers.

        ``preselect`` is the router-side coarse planner (typically
        ``load_index_dir(pool.index_dir, mmap=True)`` — the same saved
        quantizers the workers mmap).  Every scatter ships its plan, the
        one request kind a worker serves, so a call without ``nprobe``
        raises ``ValueError``.  Single-worker pools still go through
        :class:`~repro.serve.routing.ShardedBackend` so the
        preselect/degrade machinery behaves identically at every N.

        With ``replicas > 1`` each shard column becomes a
        :class:`~repro.serve.routing.ReplicaSet` under ``policy``: a
        scatter picks one live replica per shard, fails over inside the
        column on a dead one, and only a fully-dead column becomes a
        coverage hole.  The columns are remembered so the supervisor can
        mark replicas down on death and up on recovery.
        """
        backs = self.backends()
        if self.replicas == 1:
            shards: list = list(backs)
            self._groups = None
        else:
            self._groups = [
                ReplicaSet(
                    backs[self._wid(s, 0):self._wid(s, 0) + self.replicas],
                    policy=policy,
                    seed=seed + s,
                )
                for s in range(self.n_workers)
            ]
            shards = list(self._groups)
        return _PoolRouter(
            shards,
            parallel=True,
            on_shard_error=on_shard_error,
            shard_weights=[
                self.workers[self._wid(s, 0)].ntotal
                for s in range(self.n_workers)
            ],
            preselect=preselect,
        )

    def stats(self) -> dict:
        """Aggregate every live worker's metrics scrape.

        Returns ``{"workers": [per-worker data...], "counters": {...}}``
        — the per-worker entries are each worker's own
        :meth:`RemoteBackend.stats` view (pid, registry snapshot) and
        ``counters`` sums the registries' counters across workers.
        Workers that fail to answer (crashed mid-scrape) are skipped
        rather than failing the whole scrape.
        """
        per: list[dict] = []
        for backend in self.backends():
            try:
                per.append(backend.stats())
            except OSError:
                continue  # dead or wedged worker: scrape the survivors
        counters: dict[str, int] = {}
        for w in per:
            for name, val in (w.get("metrics", {}).get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + int(val)
        return {"workers": per, "counters": counters}

    # ------------------------------------------------------------------ #
    def poll(self) -> dict:
        """Exit codes of workers that have died.

        Keyed by shard id for single-replica pools (the historical
        shape), by ``(shard, replica)`` tuples when ``replicas > 1``.
        Supervised restarts replace the slot's process, so a recovered
        worker stops appearing here.
        """
        out = {}
        for wid, proc in enumerate(self._procs):
            code = proc.poll()
            if code is not None:
                shard, replica = self._slot(wid)
                out[shard if self.replicas == 1 else (shard, replica)] = code
        return out

    @property
    def alive(self) -> list[bool]:
        """Liveness per worker slot, shard-major (``wid`` order)."""
        return [proc.poll() is None for proc in self._procs]

    def kill(self, shard: int, replica: int = 0) -> None:
        """SIGKILL one worker (fault injection for crash/chaos tests)."""
        proc = self._procs[self._wid(shard, replica)]
        proc.kill()
        proc.wait()

    # ------------------------------------------------------------------ #
    # Supervised restart.

    @property
    def supervised(self) -> bool:
        """Whether the recovery loop is currently running."""
        return self._supervisor is not None and self._supervisor.is_alive()

    @property
    def worker_restarts(self) -> int:
        """Completed supervised recoveries over the pool's lifetime."""
        return len(self.restart_log)

    def start_supervisor(
        self,
        *,
        poll_interval_s: float = 0.05,
        max_restarts: int = 5,
        backoff_s: float = 0.05,
        metrics=None,
        tracer: Tracer | None = None,
        events=None,
    ) -> "WorkerPool":
        """Run the recovery loop: poll → respawn → handshake → re-register.

        Parameters
        ----------
        poll_interval_s : how often the loop scans :meth:`poll` for dead
            workers.
        max_restarts : spawn-attempt budget per recovery.  A crash-looping
            worker (respawns then immediately dies, or dies during its
            readiness handshake) is retried with exponential backoff up
            to this many times, then abandoned — recorded in
            :attr:`restart_failures`, its slot left down.
        backoff_s : base crash-loop backoff, doubled per failed attempt.
        metrics : optional :class:`~repro.serve.metrics.MetricsRegistry`;
            each recovery increments ``worker_restarts`` and stamps the
            ``coverage_restored_us`` gauge.
        tracer : optional :class:`~repro.obs.trace.Tracer`; each recovery
            records a ``worker_restart`` span covering death-detection to
            re-registration.
        events : optional :class:`~repro.obs.events.EventLog`; each
            recovery journals a ``coverage_lost`` record at death
            detection and, on success, ``coverage_restored`` plus one
            ``worker_restart`` record per :class:`RestartRecord` (exit
            code and time-to-coverage attached), so the journal and
            :attr:`restart_log` agree entry for entry.
        """
        if not self.started:
            raise RuntimeError("pool is not started")
        if self.supervised:
            raise RuntimeError("supervisor already running")
        if max_restarts < 1:
            raise ValueError(f"max_restarts must be >= 1, got {max_restarts}")
        self._sup_metrics = metrics
        self._sup_tracer = tracer
        self._sup_events = events
        self._sup_max_restarts = max_restarts
        self._sup_backoff_s = backoff_s
        self._stop_ev = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise,
            args=(poll_interval_s,),
            name="worker-supervisor",
            daemon=True,
        )
        self._supervisor.start()
        return self

    def stop_supervisor(self, timeout_s: float = 30.0) -> None:
        """Stop the recovery loop (the workers keep serving).

        Any in-flight recovery finishes its current step and exits; a
        respawn already in the slot is left running (and will be torn
        down by :meth:`stop` like every other worker).
        """
        self._stop_ev.set()
        with self._spawn_lock:
            pass  # barrier: no spawn may start after this point
        if self._supervisor is not None:
            self._supervisor.join(timeout_s)
            self._supervisor = None

    def _supervise(self, poll_interval_s: float) -> None:
        """Supervisor thread body: scan for deaths, recover each."""
        while not self._stop_ev.wait(poll_interval_s):
            for wid in range(len(self._procs)):
                if self._stop_ev.is_set():
                    return
                if wid in self._given_up:
                    continue
                code = self._procs[wid].poll()
                if code is not None:
                    self._restart(wid, code)

    def _restart(self, wid: int, exit_code: int) -> None:
        """Recover one dead worker slot (supervisor thread only)."""
        shard, replica = self._slot(wid)
        t0 = time.perf_counter()
        tracer = self._sup_tracer
        span = (
            tracer.start_trace(
                "worker_restart", args={"shard": shard, "replica": replica}
            )
            if tracer is not None
            else None
        )
        # Take the dead replica out of routing immediately: its column
        # serves from survivors (or degrades) while we respawn.
        group = self._groups[shard] if self._groups is not None else None
        if group is not None:
            group.mark_down(replica)
        if self._sup_events is not None:
            self._sup_events.emit(
                "coverage_lost",
                scope="replica",
                shard=shard,
                replica=replica,
                exit_code=exit_code,
            )
        self._close_pipes(self._procs[wid])
        attempts = 0
        while True:
            if self._stop_ev.is_set():
                if span is not None:
                    span.annotate(aborted="stop")
                    span.end()
                return
            if attempts >= self._sup_max_restarts:
                # Crash loop: budget exhausted, leave the slot down.
                self.restart_failures.append(
                    {
                        "shard": shard,
                        "replica": replica,
                        "attempts": attempts,
                        "exit_code": exit_code,
                    }
                )
                self._given_up.add(wid)
                if span is not None:
                    span.annotate(error="retry_budget_exhausted", attempts=attempts)
                    span.end()
                return
            if attempts and self._stop_ev.wait(
                self._sup_backoff_s * (1 << (attempts - 1))
            ):
                continue  # woken by stop; top of loop exits
            attempts += 1
            with self._spawn_lock:
                if self._stop_ev.is_set():
                    continue
                proc = self._spawn(shard)
                self._procs[wid] = proc
            try:
                info = self._handshake(
                    proc, shard, replica, self.startup_timeout_s
                )
            except RuntimeError:
                # Died during the handshake (or spoke garbage): reap it
                # and go around the crash-loop backoff.
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                self._close_pipes(proc)
                continue
            self.workers[wid] = info
            backend = self._backends[wid] if self._backends else None
            if backend is not None:
                try:
                    # Atomic re-registration: the routing tier holds this
                    # object; re-pointing it swaps every reference at once.
                    backend.reconnect(info.host, info.port)
                except OSError:
                    # Respawned then immediately died: reap and retry.
                    if proc.poll() is None:
                        proc.kill()
                    proc.wait()
                    self._close_pipes(proc)
                    continue
            if group is not None:
                group.mark_up(replica)
            restored_us = (time.perf_counter() - t0) * 1e6
            self.restart_log.append(
                RestartRecord(
                    shard=shard,
                    replica=replica,
                    exit_code=exit_code,
                    attempts=attempts,
                    coverage_restored_us=restored_us,
                )
            )
            if self._sup_metrics is not None:
                self._sup_metrics.inc("worker_restarts")
                self._sup_metrics.set_gauge("coverage_restored_us", restored_us)
            if self._sup_events is not None:
                # One worker_restart record per RestartRecord (the
                # journal/restart_log agreement contract), bracketed by
                # the coverage pair whose timestamp gap measures the
                # same death-to-recovery interval on the shared clock.
                self._sup_events.emit(
                    "worker_restart",
                    shard=shard,
                    replica=replica,
                    exit_code=exit_code,
                    attempts=attempts,
                    coverage_restored_us=restored_us,
                )
                self._sup_events.emit(
                    "coverage_restored",
                    scope="replica",
                    shard=shard,
                    replica=replica,
                    coverage_restored_us=restored_us,
                )
            if span is not None:
                span.annotate(
                    attempts=attempts, coverage_restored_us=int(restored_us)
                )
                span.end()
            return

    def _terminate_all(self) -> None:
        """Hard-stop every worker (startup failure path)."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self._procs:
            proc.wait()
            self._close_pipes(proc)

    @staticmethod
    def _close_pipes(proc: subprocess.Popen) -> None:
        """Close a finished worker's pipe handles."""
        for pipe in (proc.stdin, proc.stdout):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:
                    pass

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop every worker: stdin-close handshake, then escalate.

        Closing stdin asks the worker to close its server and exit 0;
        workers still running after ``timeout_s`` get SIGTERM, then
        SIGKILL.  Idempotent, and safe to call with workers already
        dead (crashed workers are simply reaped) or with the supervisor
        mid-restart: the stop event plus the spawn barrier guarantee no
        respawn slips in after the shutdown sweep starts, so a
        half-started recovery's process is reaped like any other and
        the supervisor thread exits promptly (its pending handshake
        reads EOF once the sweep kills the child).
        """
        # Fence the supervisor out first: after the barrier, _procs is
        # ours alone.  The thread is joined at the end, once the sweep
        # has EOF'd any handshake read it may be blocked on.
        self._stop_ev.set()
        with self._spawn_lock:
            pass
        for backend in self._backends:
            backend.close()
        self._backends = []
        for proc in self._procs:
            if proc.poll() is None and proc.stdin is not None:
                try:
                    proc.stdin.close()
                except OSError:
                    pass
        deadline = time.perf_counter() + timeout_s
        for escalate in (None, "terminate", "kill"):
            for proc in self._procs:
                if proc.poll() is None and escalate is not None:
                    getattr(proc, escalate)()
            for proc in self._procs:
                if proc.poll() is None:
                    try:
                        proc.wait(max(deadline - time.perf_counter(), 0.1))
                    except subprocess.TimeoutExpired:
                        pass
            if all(proc.poll() is not None for proc in self._procs):
                break
        for proc in self._procs:
            self._close_pipes(proc)
        if self._supervisor is not None:
            self._supervisor.join(timeout=max(timeout_s, 10.0))
            self._supervisor = None
        self.workers = []
        self._procs = []
        self._groups = None
        self._given_up = set()


# --------------------------------------------------------------------- #
# Worker process entry point.


def _parse_worker_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse the worker process command line."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.workers",
        description=(
            "One shard worker of the multi-process data plane: mmap an "
            "index directory, serve shard i of n over the binary protocol."
        ),
    )
    parser.add_argument("--index-dir", required=True, help="saved index directory")
    parser.add_argument("--shard", type=int, required=True, help="shard id (0-based)")
    parser.add_argument("--workers", type=int, required=True, help="total shards")
    parser.add_argument("--host", default="127.0.0.1", help="listen host")
    parser.add_argument("--port", type=int, default=0, help="listen port (0 = any)")
    args = parser.parse_args(argv)
    if args.workers < 1 or not 0 <= args.shard < args.workers:
        parser.error(f"--shard must be in [0, --workers={args.workers})")
    return args


async def _serve_until_stopped(shard, args) -> None:
    """Serve one worker's shard (preselect and stats frames, no
    engine) until stdin EOF or SIGTERM."""
    server = VectorSearchServer(
        None, args.host, args.port, preselect_backend=shard
    )
    await server.start()
    host, port = server.address
    print(
        json.dumps(
            {
                "ready": True,
                "shard": args.shard,
                "workers": args.workers,
                "host": host,
                "port": port,
                "d": shard.d,
                "ntotal": int(shard.ntotal),
            }
        ),
        flush=True,
    )
    loop = asyncio.get_running_loop()
    stop_ev = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop_ev.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread / platform without signal support

    def watch_stdin() -> None:
        # Supervisor shutdown handshake: stdin EOF means "close and
        # exit".  A daemon thread (not the default executor) does the
        # blocking read, so loop teardown never joins a stuck read.
        try:
            sys.stdin.buffer.read()
        except OSError:
            pass
        try:
            loop.call_soon_threadsafe(stop_ev.set)
        except RuntimeError:
            pass  # loop already closed

    threading.Thread(target=watch_stdin, daemon=True).start()
    await stop_ev.wait()
    await server.stop()


def worker_main(argv: list[str] | None = None) -> int:
    """Worker process entry: load, shard, serve (see module docstring)."""
    args = _parse_worker_args(argv)
    index = load_index_dir(args.index_dir, mmap=True)
    if args.workers > 1:
        shard = partition_index(index, args.workers)[args.shard]
    else:
        shard = index
    # Load the scan kernel and build the term table before the handshake,
    # so no request pays for them.
    shard.warm_gather_cache()
    asyncio.run(_serve_until_stopped(shard, args))
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(worker_main())

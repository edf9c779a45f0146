"""Command-line experiment runner.

Regenerate any table or figure of the paper from a shell::

    python -m repro.harness.cli fig03
    python -m repro.harness.cli fig09 tab04
    python -m repro.harness.cli all

Analytic experiments (fig03, fig09) run in seconds; dataset-backed ones
(tab03, tab04, fig01, fig10, fig11, fig12) build the shared context first
(about a minute of index training on first use).

``serve-bench`` exercises the online serving subsystem instead of a paper
figure.  Its mode flag picks one of six modes:

- no mode flag: ``basic`` — batch-size-1 serving against the dynamic
  micro-batching scheduler (and the query cache) under closed-loop load;
- ``--replicas`` / ``--shards``: ``replicated`` — the replicated, sharded
  serving matrix over simulated accelerator devices;
- ``--qos``: ``qos`` — noisy-neighbor isolation under weighted fair
  queueing + admission quotas, and the adaptive batch window against
  fixed windows;
- ``--async``: ``async`` — connection counts over the thread-based vs
  asyncio socket front ends;
- ``--workers``: ``workers`` — worker-process counts over the
  multi-process data plane (mmap shard workers + preselect-once scatter;
  the only mode whose scaling needs real CPU cores);
- ``--workers R,S --chaos``: ``chaos`` — an R×S replicated worker grid
  under supervised restart, workers SIGKILLed on a seeded schedule
  mid-load (zero failed requests, bounded recovery, bit-identical
  answers after).

``codesign-serve`` runs the serving co-design autotuner: given a traffic
profile (``--traffic`` JSON, or a built-in default) it searches the joint
index × R×S topology × QoS weights × batch window space with the
performance/resource/LogGP models and emits a ranked design report plus
the winning config as a loadable topology spec; ``--validate``
materializes the winner over simulated devices (in scaled time) and
records the modeled-vs-measured QPS/p99 gap.

:data:`MODE_FLAGS` is the one table of the flags each of these seven
modes takes.  A flag set for a mode that does not take it is rejected
with a message naming the modes that do.  A result that carries
``checks`` (answers bit-identical to direct search, and the mode's other
invariants) makes the run exit 1 when any check fails::

    python -m repro.harness.cli serve-bench --replicas 1,2,3 --shards 1,2,4
    python -m repro.harness.cli serve-bench --qos --tenants 2 --slo-us 40000
    python -m repro.harness.cli serve-bench --async --connections 64,512,4096
    python -m repro.harness.cli serve-bench --workers 2 --quick --trace out.trace.json
    python -m repro.harness.cli serve-bench --workers 2,1 --chaos --quick \\
        --timeline timeline.jsonl
    python -m repro.harness.cli codesign-serve --quick --validate \\
        --report codesign_report.json --spec codesign_spec.json

``trace-report`` analyzes a trace recorded with ``--trace`` (per-stage
latency percentiles and the critical path); ``serve-top`` renders a
timeline recorded with ``--timeline`` as a terminal dashboard (``--once``
for a single CI-friendly frame; otherwise it refreshes in place)::

    python -m repro.harness.cli trace-report --trace out.trace.json
    python -m repro.harness.cli serve-top --timeline timeline.jsonl --once

Every flag is documented in the README's CLI reference table.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness import fig01, fig03, fig09, fig10, fig11, fig12, tab03, tab04
from repro.harness import serve_bench
from repro.harness.context import small_context
from repro.obs.export import load_chrome_trace
from repro.obs.report import TraceReport
from repro.obs.timeline import load_timeline, render_dashboard
from repro.serve.routing import POLICIES

#: name -> (needs_context, runner(ctx, args))
EXPERIMENTS = {
    "fig03": (False, lambda ctx, args: fig03.run()),
    "fig09": (False, lambda ctx, args: fig09.run()),
    "tab03": (True, lambda ctx, args: tab03.run(ctx)),
    "tab04": (True, lambda ctx, args: tab04.run(ctx)),
    "fig01": (True, lambda ctx, args: fig01.run(ctx)),
    "fig10": (True, lambda ctx, args: fig10.run(ctx)),
    "fig11": (True, lambda ctx, args: fig11.run(ctx)),
    "fig12": (True, lambda ctx, args: fig12.run(ctx)),
    "serve-bench": (False, lambda ctx, args: _run_serve_bench(args)),
    "codesign-serve": (False, lambda ctx, args: _run_codesign(args)),
    "trace-report": (False, lambda ctx, args: _run_trace_report(args)),
    "serve-top": (False, lambda ctx, args: _run_serve_top(args)),
}

#: Experiments excluded from ``all`` (they analyze prior output instead
#: of producing their own).
NOT_IN_ALL = {"trace-report", "serve-top"}


def _positive_int(text: str) -> int:
    """argparse type: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an int >= 1, got {text!r}")
    return value


def _count_list(text: str) -> tuple[int, ...]:
    """argparse type: a ``1,2,3``-style comma list of ints >= 1."""
    return tuple(_positive_int(part) for part in text.split(","))


#: The flags each serve-bench mode and codesign-serve take (every mode
#: also takes ``--seed``).  A flag of this table set for a mode that does
#: not take it is rejected by :func:`check_mode_flags`.
MODE_FLAGS: dict[str, frozenset[str]] = {
    mode: frozenset([*flags.split(), "--seed"])
    for mode, flags in {
        "basic": "--clients --requests --trace --trace-sample --metrics-out",
        "replicated": "--replicas --shards --policy --clients --requests",
        "qos": "--qos --tenants --slo-us --timeline",
        "async": "--async --connections",
        "workers": "--workers --quick --clients --requests --trace --trace-sample --metrics-out",
        "chaos": "--workers --chaos --kills --quick --clients --requests --metrics-out --timeline",
        "codesign-serve": "--traffic --validate --report --spec --slo-us --quick",
    }.items()
}

#: serve-bench mode flags in precedence order; none set picks ``basic``.
_MODE_SELECTORS = (
    ("chaos", "--chaos"), ("workers", "--workers"), ("async", "--async"),
    ("qos", "--qos"), ("replicated", "--replicas"), ("replicated", "--shards"),
)

#: Flags that only make sense beside another flag.
_REQUIRES = {"--trace-sample": "--trace", "--chaos": "--workers"}

#: argparse dests that are not the flag name itself.
_DESTS = {"--async": "async_bench", "--report": "codesign_report", "--spec": "codesign_spec"}


def _is_set(args: argparse.Namespace, flag: str) -> bool:
    """Whether ``flag`` was given (every table flag defaults to None/False)."""
    value = getattr(args, _DESTS.get(flag, flag[2:].replace("-", "_")))
    return value is not None and value is not False


def serve_bench_mode(args: argparse.Namespace) -> str:
    """The serve-bench mode the parsed flags pick."""
    return next(
        (mode for mode, flag in _MODE_SELECTORS if _is_set(args, flag)), "basic"
    )


def check_mode_flags(mode: str, args: argparse.Namespace) -> None:
    """Reject any set flag that ``mode`` does not take, naming who takes it."""
    for flag in sorted(frozenset().union(*MODE_FLAGS.values()) - MODE_FLAGS[mode]):
        if _is_set(args, flag):
            takers = ", ".join(m for m, flags in MODE_FLAGS.items() if flag in flags)
            raise SystemExit(
                f"{flag} applies to {takers} only; the {mode} mode does not take it"
            )
    for flag, needed in _REQUIRES.items():
        if _is_set(args, flag) and not _is_set(args, needed):
            raise SystemExit(f"{flag} requires {needed}")


def _run_trace_report(args: argparse.Namespace) -> TraceReport:
    """Analyze a Chrome trace written by ``serve-bench --trace``."""
    if args.trace is None:
        raise SystemExit(
            "trace-report requires --trace PATH (a Chrome trace written by "
            "serve-bench --trace)"
        )
    return TraceReport.from_chrome(load_chrome_trace(args.trace))


class _ServeTopFrame:
    """One rendered serve-top frame, shaped like an experiment result."""

    def __init__(self, frame: str):
        self.frame = frame

    def format(self) -> str:
        """The rendered dashboard text."""
        return self.frame


def _run_serve_top(args: argparse.Namespace) -> _ServeTopFrame:
    """Render the serve-top dashboard from a ``--timeline`` JSONL file.

    With ``--once`` it renders a single frame (the newest tick plus the
    event ticker) and exits — the CI smoke path.  Otherwise it clears
    and redraws the terminal every ``--refresh`` seconds, re-reading the
    timeline file so a bench writing it concurrently shows up live;
    Ctrl-C leaves the last frame as the result.
    """
    if args.timeline is None:
        raise SystemExit(
            "serve-top requires --timeline PATH (a timeline written by "
            "serve-bench --timeline)"
        )

    def frame() -> str:
        try:
            _meta, ticks, events = load_timeline(args.timeline)
        except FileNotFoundError:
            raise SystemExit(f"timeline file not found: {args.timeline}")
        return render_dashboard(ticks, events)

    if not args.once:
        try:
            while True:
                print("\x1b[2J\x1b[H" + frame(), end="", flush=True)
                time.sleep(args.refresh)
        except KeyboardInterrupt:
            pass
    return _ServeTopFrame(frame())


def _given(**kwargs) -> dict:
    """The keyword arguments whose flag was set; runners default the rest."""
    return {key: value for key, value in kwargs.items() if value is not None}


def _run_codesign(args: argparse.Namespace):
    """Run the co-design autotuner (``codesign-serve``)."""
    return serve_bench.run_codesign(
        traffic_path=args.traffic,
        slo_us=args.slo_us,
        validate=args.validate,
        quick=args.quick,
        seed=args.seed,
        report_out=args.codesign_report,
        spec_out=args.codesign_spec,
    )


#: The ``serve_bench`` runner of each serve-bench mode.
_RUNNERS = {
    "basic": "run", "replicated": "run_replicated", "qos": "run_qos",
    "async": "run_async", "workers": "run_multiproc", "chaos": "run_chaos",
}


def _run_serve_bench(args: argparse.Namespace):
    """Dispatch serve-bench to the runner of the mode its flags pick.

    :func:`check_mode_flags` has already rejected every flag the mode does
    not take, so the runner gets exactly the flags that were set and
    applies its own defaults to the rest.
    """
    mode = serve_bench_mode(args)
    kwargs = _given(
        n_clients=args.clients, n_requests=args.requests, policy=args.policy,
        victims=args.tenants, slo_us=args.slo_us, connections=args.connections,
        kills=args.kills, trace_path=args.trace, trace_sample=args.trace_sample,
        metrics_out=args.metrics_out, timeline=args.timeline,
    )
    if args.quick:
        kwargs.update(serve_bench.MP_QUICK)
    if mode == "replicated":
        kwargs.update(replicas=args.replicas or (1, 2, 3), shards=args.shards or (1,))
    elif mode == "workers":
        kwargs.update(workers=args.workers)
    elif mode == "chaos":
        if len(args.workers) != 2:
            raise SystemExit(
                "--chaos reads --workers as R,S (replicas,shards) and needs "
                f"exactly two counts, got {','.join(map(str, args.workers))!r}"
            )
        kwargs.update(replicas=args.workers[0], shards=args.workers[1])
    return getattr(serve_bench, _RUNNERS[mode])(seed=args.seed, **kwargs)


def main(argv: list[str] | None = None) -> int:
    """Run the requested experiments; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment ids (or 'all')",
    )
    serve = parser.add_argument_group("serve-bench options")
    serve.add_argument(
        "--replicas",
        type=_count_list,
        default=None,
        metavar="R1,R2,...",
        help="replica counts for the serving matrix (enables replicated mode)",
    )
    serve.add_argument(
        "--shards",
        type=_count_list,
        default=None,
        metavar="S1,S2,...",
        help="shard counts for the serving matrix (enables replicated mode)",
    )
    serve.add_argument(
        "--policy",
        default=None,
        choices=POLICIES,
        help="replica routing policy, replicated mode only (default: least-loaded)",
    )
    serve.add_argument(
        "--clients",
        type=_positive_int,
        default=None,
        help="closed-loop client threads (default: 16 basic / 32 replicated / 8 workers)",
    )
    serve.add_argument(
        "--requests",
        type=_positive_int,
        default=None,
        help="requests per configuration (default: 400 basic / 600 replicated / 240 workers)",
    )
    serve.add_argument(
        "--qos",
        action="store_true",
        help="run the multi-tenant QoS matrix (noisy neighbor + adaptive window)",
    )
    serve.add_argument(
        "--tenants",
        type=_positive_int,
        default=None,
        metavar="N",
        help="victim tenants beside the aggressor in QoS mode (default: 2)",
    )
    serve.add_argument(
        "--slo-us",
        type=float,
        default=None,
        metavar="US",
        help=(
            "p99 SLO in microseconds: the adaptive-window target in QoS "
            "mode (default: 40000) or an override of the traffic profile's "
            "SLO in codesign-serve"
        ),
    )
    serve.add_argument(
        "--async",
        action="store_true",
        dest="async_bench",
        help="sweep connection counts over thread vs asyncio front ends",
    )
    serve.add_argument(
        "--connections",
        type=_count_list,
        default=None,
        metavar="C1,C2,...",
        help="connection counts for the async sweep (default: 64,512,4096)",
    )
    serve.add_argument(
        "--workers",
        type=_count_list,
        default=None,
        metavar="N1,N2,...",
        help=(
            "worker-process counts for the multi-process data plane sweep "
            "(mmap shard workers + preselect-once scatter)"
        ),
    )
    serve.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "fault-injection mode: read --workers as R,S (replicas,shards), "
            "SIGKILL workers on a seeded schedule under load, measure "
            "supervised recovery"
        ),
    )
    serve.add_argument(
        "--kills",
        type=_positive_int,
        default=None,
        metavar="N",
        help="workers to SIGKILL during a --chaos run (default: 2)",
    )
    serve.add_argument(
        "--quick",
        action="store_true",
        help=(
            "seconds-scale preset: smaller corpus for the --workers sweep "
            "and --chaos mode, smaller corpus + search grid for "
            "codesign-serve (CI smoke)"
        ),
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="workload seed (default: 0)"
    )
    obs = parser.add_argument_group("observability options")
    obs.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "write a merged Chrome/Perfetto trace of the serve-bench run "
            "here (basic and --workers modes); for trace-report, the trace "
            "file to analyze"
        ),
    )
    obs.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="RATE",
        help="head-sampling probability for --trace (default: 1.0)",
    )
    obs.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="dump the full metrics-registry snapshot(s) as JSON here",
    )
    obs.add_argument(
        "--timeline",
        default=None,
        metavar="PATH",
        help=(
            "write the interleaved tick/event timeline JSONL here "
            "(--chaos and --qos modes); for serve-top, the timeline "
            "file to render"
        ),
    )
    codesign = parser.add_argument_group("codesign-serve options")
    codesign.add_argument(
        "--traffic",
        default=None,
        metavar="PATH",
        help=(
            "JSON traffic profile (rate_qps, slo_p99_us, recall floor, "
            "tenant/class mix); default: a built-in two-tenant profile"
        ),
    )
    codesign.add_argument(
        "--validate",
        action="store_true",
        help=(
            "materialize the winning design through build_topology over "
            "simulated devices and record the modeled-vs-measured gap"
        ),
    )
    codesign.add_argument(
        "--report",
        dest="codesign_report",
        default=None,
        metavar="PATH",
        help="write the ranked design report JSON here (tools/check_codesign.py input)",
    )
    codesign.add_argument(
        "--spec",
        dest="codesign_spec",
        default=None,
        metavar="PATH",
        help="write the winning design as a loadable topology spec JSON here",
    )
    top = parser.add_argument_group("serve-top options")
    top.add_argument(
        "--once",
        action="store_true",
        help="serve-top: render one dashboard frame and exit (CI smoke)",
    )
    top.add_argument(
        "--refresh",
        type=float,
        default=1.0,
        metavar="S",
        help="serve-top: redraw period in seconds (default: 1.0)",
    )
    args = parser.parse_args(argv)
    if args.trace_sample is not None and not 0.0 <= args.trace_sample <= 1.0:
        raise SystemExit(
            f"--trace-sample must be in [0, 1], got {args.trace_sample}"
        )
    if args.refresh <= 0:
        raise SystemExit(f"--refresh must be > 0, got {args.refresh}")
    names = (
        sorted(set(EXPERIMENTS) - NOT_IN_ALL)
        if "all" in args.experiments
        else args.experiments
    )

    for name in names:
        mode = serve_bench_mode(args) if name == "serve-bench" else name
        if mode in MODE_FLAGS:
            check_mode_flags(mode, args)

    status = 0
    ctx = None
    for name in names:
        needs_ctx, runner = EXPERIMENTS[name]
        if needs_ctx and ctx is None:
            print("building experiment context (datasets + index grids)...")
            ctx = small_context()
        t0 = time.perf_counter()
        result = runner(ctx, args)
        elapsed = time.perf_counter() - t0
        print(f"\n### {name} ({elapsed:.1f}s)\n")
        print(result.format())
        failed = [check for check, ok in getattr(result, "checks", {}).items() if not ok]
        if failed:
            print(f"{name}: check failed: {', '.join(failed)}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``cut FILE``
    Exact minimum cut of a graph file (edgelist or DIMACS via --format).
``approx FILE``
    The Section 3 (1 +- eps) approximation.
``bench N M``
    One instrumented run on a random graph: value + work/depth profile.
``engine FILE``
    The staged :class:`repro.engine.CutEngine`: preprocess once, then
    answer ``--batch N`` independent queries (and optionally a second
    warm query) with per-stage cache statistics; ``--updates N``
    additionally streams N random edge mutations through
    ``engine.update()`` and reports the amortized update work.
``arena FILE``
    Run registered contenders (:mod:`repro.arena`) on one graph, print
    per-contender value/wall/work lines, and cross-check the exact
    answers (non-zero exit on disagreement).  ``--list`` enumerates
    the registry.  See ``docs/arena.md``.
``serve``
    The cut-serving daemon (:mod:`repro.serve`): length-prefixed JSON
    over TCP, multi-tenant admission control, deadline shedding — see
    ``docs/service.md``.  Runs until the ``shutdown`` op or Ctrl-C.

All commands accept ``--seed`` and print machine-greppable ``key value``
lines.  ``--trace OUT.json`` additionally records the run through
:mod:`repro.obs` and writes a Chrome-trace-viewer compatible file
(phase spans with wall/work/depth, counter registry, schedule bounds —
see ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.graphs.graph import Graph
from repro.graphs.generators import random_connected_graph
from repro.graphs.io import read_dimacs, read_edgelist, read_graph_binary
from repro.pram.trace import TraceLedger

__all__ = ["main"]

#: exit status for well-formed invocations that fail inside the library
#: (malformed graph files, exhausted budgets, invalid parameters, ...)
EXIT_REPRO_ERROR = 2


def _load(path: str, fmt: str) -> Graph:
    if fmt == "auto":
        suffix = Path(path).suffix
        if suffix in (".dimacs", ".max", ".col"):
            fmt = "dimacs"
        elif suffix in (".rpg", ".bin"):
            fmt = "binary"
        else:
            fmt = "edgelist"
    if fmt == "dimacs":
        return read_dimacs(path)
    if fmt == "binary":
        return read_graph_binary(path)
    return read_edgelist(path)


def _write_trace(res, out: Path) -> None:
    """Export a traced result's RunReport and print the summary lines."""
    report = res.report
    assert report is not None
    report.write_trace(out)
    print(f"trace {out}")
    for p in report.phases(top_level_only=True):
        print(f"trace.phase.{p.name}.wall_s {p.wall_s:.6f}")
        print(f"trace.phase.{p.name}.work {p.work}")
    print(f"trace.spans {sum(1 for _ in report.span.walk())}")


def _cmd_cut(args: argparse.Namespace) -> int:
    graph = _load(args.file, args.format)
    # a TraceLedger also records the series-parallel shape, so --trace
    # reports carry schedule bounds on top of the span timeline
    ledger = TraceLedger()
    trace = args.trace is not None
    resilient = (
        args.deadline is not None
        or args.max_attempts is not None
        or args.checkpoint is not None
    )
    if resilient:
        from repro.resilience import resilient_minimum_cut

        res = resilient_minimum_cut(
            graph,
            deadline=args.deadline,
            max_attempts=args.max_attempts if args.max_attempts is not None else 3,
            epsilon=args.epsilon,
            seed=args.seed,
            checkpoint=args.checkpoint,
            resume=not args.no_resume,
            ledger=ledger,
            trace=trace,
        )
    else:
        from repro.core.mincut import minimum_cut

        res = minimum_cut(
            graph,
            epsilon=args.epsilon,
            rng=np.random.default_rng(args.seed),
            ledger=ledger,
            trace=trace,
        )
    print(f"value {res.value}")
    small = res.side if res.side.sum() * 2 <= graph.n else ~res.side
    print(f"side {' '.join(str(int(v)) for v in np.flatnonzero(small))}")
    print(f"work {ledger.work}")
    print(f"depth {ledger.depth}")
    if resilient:
        print(f"attempts {res.attempts}")
        print(f"fallback {res.fallback_used or 'none'}")
        print(f"verified {int(res.verification.ok if res.verification else 0)}")
    if trace:
        _write_trace(res, args.trace)
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    from repro.approx.approximate import approximate_minimum_cut
    from repro.sparsify.hierarchy import HierarchyParams

    graph = _load(args.file, args.format)
    ledger = TraceLedger()
    res = approximate_minimum_cut(
        graph,
        params=HierarchyParams(scale=args.scale),
        rng=np.random.default_rng(args.seed),
        ledger=ledger,
        trace=args.trace is not None,
    )
    print(f"estimate {res.estimate}")
    print(f"low {res.low}")
    print(f"high {res.high}")
    print(f"layer {res.skeleton_layer}")
    print(f"work {ledger.work}")
    print(f"depth {ledger.depth}")
    if args.trace is not None:
        _write_trace(res, args.trace)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.core.mincut import minimum_cut

    graph = random_connected_graph(
        args.n, args.m, rng=args.seed, max_weight=args.max_weight
    )
    ledger = TraceLedger()
    res = minimum_cut(
        graph,
        rng=np.random.default_rng(args.seed),
        ledger=ledger,
        trace=args.trace is not None,
    )
    print(f"n {graph.n}")
    print(f"m {graph.m}")
    print(f"value {res.value}")
    print(f"work {ledger.work}")
    print(f"depth {ledger.depth}")
    for name, rec in sorted(ledger.phases.items()):
        print(f"phase.{name}.work {rec.work}")
        print(f"phase.{name}.depth {rec.depth}")
    if args.trace is not None:
        _write_trace(res, args.trace)
    return 0


def _cmd_engine(args: argparse.Namespace) -> int:
    from repro.engine.service import CutEngine
    from repro.obs import CounterRegistry, counting_scope

    graph = _load(args.file, args.format)
    ledger = TraceLedger()
    engine = CutEngine(
        graph, seed=args.seed, epsilon=args.epsilon, ledger=ledger
    )
    registry = CounterRegistry()
    with counting_scope(registry):
        res = engine.min_cut(trace=args.trace is not None)
        cold_work = ledger.work
        if args.batch > 0:
            batch = engine.min_cut_batch(range(args.seed, args.seed + args.batch))
        else:
            batch = []
        last_update = None
        if args.updates > 0:
            from repro.engine.deltas import random_delta

            pre_update_work = ledger.work
            rng = np.random.default_rng(args.seed)
            for _ in range(args.updates):
                last_update = engine.update(**random_delta(engine.graph, rng))
    print(f"value {res.value}")
    small = res.side if res.side.sum() * 2 <= graph.n else ~res.side
    print(f"side {' '.join(str(int(v)) for v in np.flatnonzero(small))}")
    print(f"cold.work {cold_work}")
    print(f"work {ledger.work}")
    print(f"depth {ledger.depth}")
    if batch:
        print(f"batch.queries {len(batch)}")
        print(f"batch.values {' '.join(str(b.value) for b in batch)}")
        # warm batch work beyond the cold query is pure search fan-out
        print(f"batch.extra_work {ledger.work - cold_work}")
    if last_update is not None:
        print(f"updates {args.updates}")
        print(f"updates.work {ledger.work - pre_update_work}")
        print(f"updates.rebases {int(registry.get('engine.rebases'))}")
        print(f"updates.epoch {engine.epoch}")
        print(f"updates.staleness {engine.staleness}")
        print(f"updates.value {last_update.value}")
        verified = last_update.verification
        print(f"updates.verified {int(verified.ok) if verified else 0}")
    print(f"cache.entries {len(engine.cache)}")
    print(f"cache.hits {engine.cache.stats['hits']}")
    print(f"cache.misses {engine.cache.stats['misses']}")
    print(f"engine.stage_runs {registry.get('engine.stage_runs')}")
    if args.trace is not None:
        _write_trace(res, args.trace)
    return 0


def _cmd_arena(args: argparse.Namespace) -> int:
    from repro.arena import contender_names, get_contender

    if args.list:
        for name in contender_names():
            c = get_contender(name)
            print(f"{name} {c.kind}")
        return 0
    if args.file is None:
        print("error: a graph file is required unless --list", file=sys.stderr)
        return EXIT_REPRO_ERROR
    graph = _load(args.file, args.format)
    names = args.contenders.split(",") if args.contenders else contender_names()
    exact_values = {}
    for name in names:
        c = get_contender(name.strip())
        if not c.supports(graph):
            print(f"{c.name}.skipped unsupported")
            continue
        res = c.solve(graph, seed=args.seed, budget=args.budget)
        print(f"{c.name}.value {res.value}")
        print(f"{c.name}.kind {res.kind}")
        print(f"{c.name}.wall_s {res.wall_s:.6f}")
        print(f"{c.name}.work {res.work}")
        print(f"{c.name}.depth {res.depth}")
        if res.kind == "approx":
            print(f"{c.name}.claimed_ratio {res.claimed_ratio}")
            print(f"{c.name}.lower_bound {res.lower_bound}")
        else:
            exact_values[c.name] = res.value
    if len(exact_values) > 1:
        vals = sorted(set(exact_values.values()))
        agree = int(len(vals) == 1)
        print(f"exact.agree {agree}")
        if not agree:
            for name, v in sorted(exact_values.items()):
                print(f"exact.disagreement.{name} {v}", file=sys.stderr)
            return EXIT_REPRO_ERROR
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServerConfig
    from repro.serve.server import run_tcp

    config = ServerConfig(
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        workers=args.workers,
        default_budget_class=args.budget_class,
        allow_shutdown=not args.no_shutdown_op,
        state_dir=None if args.state_dir is None else str(args.state_dir),
        fsync=args.fsync,
        snapshot_interval=args.snapshot_interval,
        snapshot_retention=args.snapshot_retention,
    )
    try:
        run_tcp(config)
    except OSError as exc:
        # the listener could not bind (port taken, host unknown): one
        # line, like a refused setting
        print(f"error: OSError: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_REPRO_ERROR
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Work-optimal parallel minimum cuts (SPAA 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", type=Path, default=None, metavar="OUT.json",
                       help="record phase spans + counters and write a "
                            "Chrome-trace-viewer JSON file")

    p_cut = sub.add_parser("cut", help="exact minimum cut of a graph file")
    p_cut.add_argument("file")
    p_cut.add_argument("--format", choices=("auto", "edgelist", "dimacs"), default="auto")
    p_cut.add_argument("--epsilon", type=float, default=None,
                       help="Section 4.3 range-tree degree exponent")
    p_cut.add_argument("--seed", type=int, default=0)
    p_cut.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                       help="wall-clock budget; routes through the resilient "
                            "driver (verified retries, Stoer-Wagner fallback)")
    p_cut.add_argument("--max-attempts", type=int, default=None, metavar="N",
                       help="exact-pipeline attempts before falling back "
                            "(implies the resilient driver; default 3)")
    p_cut.add_argument("--checkpoint", type=Path, default=None, metavar="PATH",
                       help="persist completed-phase artifacts to PATH "
                            "(implies the resilient driver); a killed run "
                            "re-invoked with the same arguments resumes "
                            "mid-pipeline bit-identically")
    p_cut.add_argument("--no-resume", action="store_true",
                       help="ignore an existing checkpoint file at "
                            "--checkpoint and start fresh")
    add_trace(p_cut)
    p_cut.set_defaults(func=_cmd_cut)

    p_apx = sub.add_parser("approx", help="(1 +- eps) approximation")
    p_apx.add_argument("file")
    p_apx.add_argument("--format", choices=("auto", "edgelist", "dimacs"), default="auto")
    p_apx.add_argument("--scale", type=float, default=0.02,
                       help="hierarchy constant scale (1.0 = paper constants)")
    p_apx.add_argument("--seed", type=int, default=0)
    add_trace(p_apx)
    p_apx.set_defaults(func=_cmd_approx)

    p_bench = sub.add_parser("bench", help="instrumented run on a random graph")
    p_bench.add_argument("n", type=int)
    p_bench.add_argument("m", type=int)
    p_bench.add_argument("--max-weight", type=int, default=8)
    p_bench.add_argument("--seed", type=int, default=0)
    add_trace(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_eng = sub.add_parser(
        "engine",
        help="staged engine: preprocess once, answer batched queries",
    )
    p_eng.add_argument("file")
    p_eng.add_argument("--format", choices=("auto", "edgelist", "dimacs"), default="auto")
    p_eng.add_argument("--epsilon", type=float, default=None,
                       help="Section 4.3 range-tree degree exponent")
    p_eng.add_argument("--seed", type=int, default=0)
    p_eng.add_argument("--batch", type=int, default=0, metavar="N",
                       help="after the cold query, answer N independent "
                            "warm queries (seeds seed..seed+N-1) through "
                            "the cached artifacts")
    p_eng.add_argument("--updates", type=int, default=0, metavar="N",
                       help="after the cold query, apply N random edge "
                            "mutations (add/remove/reweight, seeded by "
                            "--seed) through engine.update() and report "
                            "the amortized work, rebase count, and final "
                            "epoch/staleness")
    add_trace(p_eng)
    p_eng.set_defaults(func=_cmd_engine)

    p_arena = sub.add_parser(
        "arena",
        help="run registered contenders on a graph and cross-check (docs/arena.md)",
    )
    p_arena.add_argument("file", nargs="?", default=None)
    p_arena.add_argument("--format",
                         choices=("auto", "edgelist", "dimacs", "binary"),
                         default="auto")
    p_arena.add_argument("--contenders", default=None, metavar="A,B,...",
                         help="comma-separated registry names (default: all "
                              "supported contenders)")
    p_arena.add_argument("--seed", type=int, default=0)
    p_arena.add_argument("--budget", type=float, default=None, metavar="SECONDS",
                         help="best-effort wall-clock budget handed to each "
                              "contender")
    p_arena.add_argument("--list", action="store_true",
                         help="list registered contenders and exit")
    p_arena.set_defaults(func=_cmd_arena)

    p_srv = sub.add_parser(
        "serve",
        help="run the multi-tenant cut-serving daemon (docs/service.md)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=7471,
                       help="TCP port (0 = ephemeral, printed on start)")
    p_srv.add_argument("--queue-depth", type=int, default=64,
                       help="bounded admission queue; overflow is answered "
                            "with a typed retry_after")
    p_srv.add_argument("--workers", type=int, default=4,
                       help="concurrent dispatch workers")
    p_srv.add_argument("--budget-class",
                       choices=("interactive", "standard", "batch"),
                       default="standard",
                       help="default budget class for tenants registered "
                            "without one")
    p_srv.add_argument("--no-shutdown-op", action="store_true",
                       help="disable the remote 'shutdown' op")
    p_srv.add_argument("--state-dir", type=Path, default=None, metavar="DIR",
                       help="durable state: write-ahead log + snapshots in "
                            "DIR; on start, recovery restores registered "
                            "tenants/graphs and every acked update "
                            "(docs/robustness.md).  Omitted = in-memory "
                            "only")
    p_srv.add_argument("--fsync", choices=("always", "batch", "never"),
                       default="always",
                       help="WAL fsync policy: 'always' makes every ack "
                            "machine-crash durable; 'batch' fsyncs every "
                            "few appends; 'never' leaves it to the kernel "
                            "(process-crash durable only)")
    p_srv.add_argument("--snapshot-interval", type=int, default=64,
                       metavar="N",
                       help="WAL records between automatic snapshots")
    p_srv.add_argument("--snapshot-retention", type=int, default=2,
                       metavar="K",
                       help="verified snapshot generations to keep")
    p_srv.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # library errors are user-facing: one line on stderr, exit 2,
        # no traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_REPRO_ERROR
    except BrokenPipeError:
        # downstream consumer (e.g. `| head`) closed the pipe: exit quietly
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

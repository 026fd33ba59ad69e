"""Command-line interface.

Subcommands::

    python -m repro analyze SCHEME.json
        Classify a scheme (BCNF, acyclicity, independence,
        key-equivalent partition, reducibility, ctm).

    python -m repro explain SCHEME.json --target ACG
        Print the predetermined total-projection plan for [X].

    python -m repro check SCHEME.json STATE.json
        Report local and global consistency of a state.

    python -m repro query SCHEME.json STATE.json --target ACG
        Evaluate the X-total projection.

    python -m repro insert SCHEME.json STATE.json \
            --relation R1 --values H=9am,R=DC128,C=CS445 [--out NEW.json]
        Validate one insertion; write the updated state when accepted.

    python -m repro synthesize --fds "A->B, B->C" [--universe ABCD] \
            [--out SCHEME.json]
        Synthesize a cover-embedding 3NF scheme from fds.

    python -m repro serve [SCHEME.json] [--store DIR] [--shards N]
            [--script FILE | --port P]
        Serve a ShardRouter over the line protocol (stdin or a script
        file) or, with --port, the asyncio frame frontend; both answer
        through one dispatcher.  With --store, every accepted update is
        WAL-logged and the store recovers on restart; without, nothing
        is persisted.  `help` lists the line protocol's commands.

    python -m repro replay --store DIR [--json] [--out STATE.json]
        Recover a durable store (snapshot + WAL replay, torn-tail
        repair) and report what recovery did.

    python -m repro insert SCHEME.json STATE.json --relation R1 ...
    python -m repro insert --store DIR --relation R1 --values ...
        Validate one insertion; with --store the outcome is durable
        (accepted updates hit the WAL, rejections are logged as
        diagnostics).

    python -m repro stats SCHEME.json STATE.json --target ACG [--repeat N]
    python -m repro stats --store DIR [--target ACG]
        Run a traced workload (chase + queries, or store recovery) and
        report per-stage span latency histograms (p50/p95/p99) with
        their counters; --json and --prometheus select the format.

``serve``, ``insert``, ``query`` and ``stats`` accept ``--trace
FILE.jsonl`` to append a slow-operation log: one JSON object per span
at or above ``--slow-ms`` milliseconds (default 0 = log every span),
each carrying the span name, its duration and its counters.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.analysis.report import analyze_scheme
from repro.core.engine import WeakInstanceEngine
from repro.fd.fdset import FDSet
from repro.foundations.attrs import attrs, fmt_attrs
from repro.foundations.errors import ReproError
from repro.io import (
    dump_scheme,
    dump_state,
    load_scheme,
    load_state,
    scheme_to_dict,
    sorted_rows,
    state_to_dict,
)
from repro.obs.exposition import prometheus_text
from repro.obs.spans import Tracer, tracing
from repro.schema.synthesis import synthesize_3nf
from repro.state.consistency import is_consistent, is_locally_consistent


def _tracer_from_args(args: argparse.Namespace) -> Optional[Tracer]:
    """The slow-op tracer the ``--trace``/``--slow-ms`` flags ask for
    (``None`` when ``--trace`` was not given)."""
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return None
    threshold = getattr(args, "slow_ms", 0.0) / 1000.0
    return Tracer(slow_log=trace_path, slow_threshold=threshold)


def _add_trace_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--trace",
        help="append a slow-operation JSONL log to this file",
    )
    subparser.add_argument(
        "--slow-ms",
        type=float,
        default=0.0,
        dest="slow_ms",
        help="only log spans at least this many milliseconds long "
        "(default 0 = every span)",
    )


def _parse_values(text: str) -> dict[str, str]:
    """Parse ``A=a,B=b`` tuple notation."""
    values: dict[str, str] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise argparse.ArgumentTypeError(
                f"expected ATTR=value, got {piece!r}"
            )
        attribute, _, value = piece.partition("=")
        attribute = attribute.strip()
        if attribute in values:
            raise argparse.ArgumentTypeError(
                f"attribute {attribute!r} given twice"
            )
        values[attribute] = value.strip()
    if not values:
        raise argparse.ArgumentTypeError("no values given")
    return values


def _cmd_analyze(args: argparse.Namespace) -> int:
    scheme = load_scheme(args.scheme)
    report = analyze_scheme(scheme)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    scheme = load_scheme(args.scheme)
    engine = WeakInstanceEngine(scheme)
    try:
        print(engine.explain(args.target))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    scheme = load_scheme(args.scheme)
    state = load_state(scheme, args.state)
    local = is_locally_consistent(state)
    globally = is_consistent(state)
    print(f"locally consistent:  {local}")
    print(f"globally consistent: {globally}")
    if local and not globally:
        print(
            "note: the state is in LSAT − WSAT; this scheme does not "
            "enforce global consistency locally"
        )
    return 0 if globally else 2


def _cmd_query(args: argparse.Namespace) -> int:
    tracer = _tracer_from_args(args)
    try:
        with tracing(tracer):
            scheme = load_scheme(args.scheme)
            state = load_state(scheme, args.state)
            engine = WeakInstanceEngine(scheme)
            target = attrs(args.target)
            rows = engine.query(state, target)
        ordered = sorted(target)
        print("\t".join(ordered))
        for row in sorted_rows(rows):
            print("\t".join(str(value) for value in row))
        return 0
    finally:
        if tracer is not None:
            tracer.close()


def _print_rejection(relation_name: str, outcome: dict) -> None:
    """A rejected insert explains itself with the full outcome
    rendering (``MaintenanceOutcome.to_dict()``), not a bare exit code."""
    print(
        f"REJECTED: inserting into {relation_name} would make the "
        "state inconsistent"
    )
    print(json.dumps(outcome, indent=2, sort_keys=True))


def _new_store_scheme(args: argparse.Namespace):
    """The scheme positional that creates ``args.store`` when the
    directory is not a store yet."""
    from repro.foundations.errors import StoreError

    scheme_path = getattr(args, "scheme", None)
    if not scheme_path:
        raise StoreError(
            f"{args.store} is not a store yet; pass a scheme file to "
            "create it"
        )
    return load_scheme(scheme_path)


def _open_or_create_store(args: argparse.Namespace):
    """Open the store at ``args.store``, creating it from the scheme
    positional when the directory is not a store yet."""
    from pathlib import Path

    from repro.service.store import SCHEME_FILE, DurableStore

    store_dir = Path(args.store)
    fsync_every = getattr(args, "fsync_every", 1)
    if (store_dir / SCHEME_FILE).exists():
        return DurableStore.open(store_dir, fsync_every=fsync_every)
    return DurableStore.create(
        store_dir, _new_store_scheme(args), fsync_every=fsync_every
    )


def _cmd_insert(args: argparse.Namespace) -> int:
    tracer = _tracer_from_args(args)
    try:
        with tracing(tracer):
            return _run_insert(args)
    finally:
        if tracer is not None:
            tracer.close()


def _run_insert(args: argparse.Namespace) -> int:
    if args.store:
        store = _open_or_create_store(args)
        try:
            outcome = store.insert(args.relation, args.values)
            if not outcome.consistent:
                _print_rejection(args.relation, outcome.to_dict())
                print(
                    "(rejection logged durably in "
                    f"{store.directory / 'wal'})"
                )
                return 2
            print(
                f"accepted at seq {store.last_seq} "
                f"(examined {outcome.tuples_examined} stored tuples); "
                f"persisted in {store.directory}"
            )
            if args.out:
                dump_state(outcome.state, args.out)
                print(f"updated state written to {args.out}")
            return 0
        finally:
            store.close()
    if not args.scheme or not args.state:
        print(
            "error: insert needs SCHEME.json and STATE.json, or --store DIR",
            file=sys.stderr,
        )
        return 1
    scheme = load_scheme(args.scheme)
    state = load_state(scheme, args.state)
    engine = WeakInstanceEngine(scheme)
    outcome = engine.insert(state, args.relation, args.values)
    if not outcome.consistent:
        _print_rejection(args.relation, outcome.to_dict())
        return 2
    print(
        f"accepted (examined {outcome.tuples_examined} stored tuples)"
    )
    if args.out:
        dump_state(outcome.state, args.out)
        print(f"updated state written to {args.out}")
    else:
        print(json.dumps(state_to_dict(outcome.state), sort_keys=True))
    return 0


SERVE_HELP = """\
commands:
  session NAME                run later commands in the named session
  insert REL A=a,B=b,...      validate + apply one insertion
  delete REL A=a,B=b,...      apply one deletion
  query ATTRS                 evaluate the total projection [ATTRS]
  state                       print the committed state as JSON
  metrics                     print router + engine-cache counters
  stats                       print span histograms + counters as JSON
  prometheus                  print the Prometheus text exposition
  snapshot                    force a snapshot + WAL reset (durable only)
  sessions                    list the sessions requests have named
  help                        this text
  exit                        stop serving"""

#: Line-protocol commands that are one frontend request each (``help``,
#: ``exit`` and ``session`` are the loop's own).
LINE_OPS = (
    "insert",
    "delete",
    "query",
    "state",
    "metrics",
    "stats",
    "prometheus",
    "snapshot",
    "sessions",
)


def _line_request(command: str, rest: str, session: str) -> dict:
    """The frontend request frame one protocol line stands for."""
    request = {"op": command, "session": session}
    if command in ("insert", "delete"):
        relation_name, _, spec = rest.partition(" ")
        request["relation"] = relation_name
        request["values"] = _parse_values(spec)
    elif command == "query":
        request["target"] = rest
    return request


def _print_reply(command: str, rest: str, reply: dict) -> None:
    """Render one dispatcher reply the way the line protocol prints it."""
    if not reply["ok"]:
        print(f"error: {reply['error']['message']}")
    elif command == "insert":
        outcome = reply["outcome"]
        if outcome["consistent"]:
            print(f"accepted ({outcome['tuples_examined']} examined)")
        else:
            _print_rejection(rest.partition(" ")[0], outcome)
    elif command == "delete":
        print("deleted")
    elif command == "query":
        print("\t".join(sorted(attrs(rest))))
        for row in reply["rows"]:
            print("\t".join(str(value) for value in row))
    elif command == "state":
        print(json.dumps(reply["state"], sort_keys=True))
    elif command in ("metrics", "stats"):
        print(json.dumps(reply[command], indent=2, sort_keys=True))
    elif command == "prometheus":
        print(reply["text"], end="")
    elif command == "snapshot":
        print("snapshot written")
    else:
        print(", ".join(reply["sessions"]))


def _serve_loop(router, lines, echo: bool = False) -> int:
    """Drive the router over the line protocol.  Returns an exit code;
    protocol errors are reported per line, not fatal.  Each request
    line goes through :func:`repro.shard.frontend.dispatch`, the same
    function the ``--port`` frontend answers frames with."""
    from repro.shard.frontend import dispatch

    session = "default"
    for raw in lines:
        line = raw.strip()
        if echo and line:
            print(f"> {line}")
        if not line or line.startswith("#"):
            continue
        command, _, rest = line.partition(" ")
        rest = rest.strip()
        if command in ("exit", "quit"):
            break
        if command == "help":
            print(SERVE_HELP)
        elif command == "session":
            if rest:
                session = rest
                print(f"session {rest}")
            else:
                print("error: session needs a name")
        elif command not in LINE_OPS:
            print(f"error: unknown command {command!r} (try `help`)")
        else:
            try:
                request = _line_request(command, rest, session)
            except argparse.ArgumentTypeError as error:
                print(f"error: {error}")
                continue
            _print_reply(command, rest, dispatch(router, request))
    return 0


def _install_shutdown_handlers() -> dict:
    """Route SIGTERM/SIGINT into :class:`KeyboardInterrupt` so ``serve``
    tears down stores (every shard's WAL) cleanly under a
    supervisor, not just on a keyboard ^C.  Returns the previous
    handlers — restore them in a ``finally``, because the tests drive
    ``_cmd_serve`` in-process and must not leak handlers.  A no-op off
    the main thread, where handlers cannot be installed."""
    import signal as signal_mod

    def _handle(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous: dict = {}
    for signum in (signal_mod.SIGTERM, signal_mod.SIGINT):
        try:
            previous[signum] = signal_mod.signal(signum, _handle)
        except ValueError:  # not the main thread
            pass
    return previous


def _restore_shutdown_handlers(previous: dict) -> None:
    import signal as signal_mod

    for signum, handler in previous.items():
        signal_mod.signal(signum, handler)


def _serve_lines(router: object, args: argparse.Namespace) -> int:
    """Run the line protocol with supervised-shutdown semantics."""
    previous = _install_shutdown_handlers()
    try:
        if args.script:
            with open(args.script) as handle:
                return _serve_loop(router, handle, echo=True)
        return _serve_loop(router, sys.stdin)
    except KeyboardInterrupt:
        print("\nshutting down")
        return 0
    finally:
        _restore_shutdown_handlers(previous)


def _serve_frontend_blocking(router: object, args: argparse.Namespace) -> int:
    """Run the frame front door until SIGTERM/SIGINT."""
    import asyncio
    import signal as signal_mod

    from repro.shard.frontend import serve_frontend

    async def _run() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal_mod.SIGTERM, signal_mod.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # platform or non-main-thread limitation
        await serve_frontend(
            router,
            host=args.host,
            port=args.port,
            stop=stop,
            announce=True,
        )

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    print("shutting down")
    return 0


def _open_router(args: argparse.Namespace, tracer: Optional[Tracer]):
    """The one :class:`~repro.shard.router.ShardRouter` ``serve`` runs.

    An existing store (sharded, or a plain store served in place as
    one shard) is opened; a new ``--store`` directory is created plain
    without ``--shards`` and sharded with it; no ``--store`` serves in
    memory."""
    from pathlib import Path

    from repro.foundations.errors import ServiceError
    from repro.service.store import SCHEME_FILE, SHARD_FILE
    from repro.shard.router import ShardRouter

    store = Path(args.store) if args.store else None
    if store is not None and (store / SCHEME_FILE).exists():
        router = ShardRouter.open(
            store, args.shards, fsync_every=args.fsync_every, tracer=tracer
        )
        verb = "serving"
    else:
        if not args.scheme:
            raise ServiceError(
                "serve needs a scheme file or an existing --store"
            )
        scheme = load_scheme(args.scheme)
        if store is None:
            router = ShardRouter.in_memory(
                scheme, args.shards or 1, tracer=tracer
            )
            print(
                f"serving in-memory, {router.shards} shard(s) "
                "(no --store: nothing will be persisted)"
            )
            return router
        router = ShardRouter.create(
            store,
            scheme,
            args.shards,
            fsync_every=args.fsync_every,
            tracer=tracer,
        )
        verb = "created"
    kind = "sharded store" if (store / SHARD_FILE).exists() else "store"
    print(f"{verb} {kind} {store} ({router.shards} shard(s))")
    return router


def _cmd_serve(args: argparse.Namespace) -> int:
    tracer = _tracer_from_args(args)
    try:
        router = _open_router(args, tracer)
        try:
            if args.port is not None:
                return _serve_frontend_blocking(router, args)
            return _serve_lines(router, args)
        finally:
            router.close()
    finally:
        if tracer is not None:
            tracer.close()


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.service.store import DurableStore

    store = DurableStore.open(args.store)
    try:
        report = store.recovery
        if args.json:
            payload = report.to_dict()
            payload["last_seq"] = store.last_seq
            payload["tuples"] = store.state.total_tuples()
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(report.describe())
            print(
                f"store is at seq {store.last_seq} with "
                f"{store.state.total_tuples()} stored tuple(s)"
            )
        if args.out:
            dump_state(store.state, args.out)
            print(f"recovered state written to {args.out}")
        return 0
    finally:
        store.close()


def _cmd_recover(args: argparse.Namespace) -> int:
    """Point-in-time recovery: open the store as of a sequence number
    and report (or export) exactly the state the first N records built."""
    from repro.service.store import DurableStore

    store = DurableStore.open(args.store, as_of_seq=args.as_of)
    try:
        report = store.recovery
        if args.json:
            payload = report.to_dict()
            payload["last_seq"] = store.last_seq
            payload["tuples"] = store.state.total_tuples()
            payload["read_only"] = store.read_only
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(report.describe())
            print(
                f"state as of seq {store.last_seq}: "
                f"{store.state.total_tuples()} stored tuple(s) "
                "(read-only — the live log continues past this point)"
            )
        if args.out:
            dump_state(store.state, args.out)
            print(f"point-in-time state written to {args.out}")
        return 0
    finally:
        store.close()


def _render_span_table(summaries: dict) -> str:
    """Fixed-width ``span  count  p50  p95  p99  max`` lines (times in
    milliseconds), sorted by span name."""
    if not summaries:
        return "(no spans recorded)"
    header = f"{'span':<20} {'count':>7} {'p50ms':>10} {'p95ms':>10} {'p99ms':>10} {'maxms':>10}"
    lines = [header]
    for name in sorted(summaries):
        summary = summaries[name]
        lines.append(
            f"{name:<20} {int(summary['count']):>7} "
            f"{summary['p50'] * 1000:>10.3f} "
            f"{summary['p95'] * 1000:>10.3f} "
            f"{summary['p99'] * 1000:>10.3f} "
            f"{summary['max'] * 1000:>10.3f}"
        )
    return "\n".join(lines)


def _cmd_stats(args: argparse.Namespace) -> int:
    """Trace a real workload and report the per-stage histograms."""
    slow_tracer = _tracer_from_args(args)
    tracer = slow_tracer if slow_tracer is not None else Tracer()
    metrics: dict = {}
    try:
        with tracing(tracer):
            if args.store:
                # Every store, plain or sharded, opens through the
                # router, as ``serve`` does: worker series carry a
                # shard label.
                from pathlib import Path

                from repro.service.store import SCHEME_FILE
                from repro.shard.router import ShardRouter

                if (Path(args.store) / SCHEME_FILE).exists():
                    router = ShardRouter.open(args.store, tracer=tracer)
                else:
                    router = ShardRouter.create(
                        args.store,
                        _new_store_scheme(args),
                        None,
                        tracer=tracer,
                    )
                try:
                    if args.target:
                        for _ in range(args.repeat):
                            router.query(args.target)
                    if args.prometheus:
                        print(router.prometheus(), end="")
                        return 0
                    metrics = router.metrics_snapshot()
                finally:
                    router.close()
            else:
                if not args.scheme or not args.state:
                    print(
                        "error: stats needs SCHEME.json and STATE.json, "
                        "or --store DIR",
                        file=sys.stderr,
                    )
                    return 1
                scheme = load_scheme(args.scheme)
                state = load_state(scheme, args.state)
                engine = WeakInstanceEngine(scheme)
                if args.target:
                    for _ in range(args.repeat):
                        engine.query(state, args.target)
                else:
                    engine.representative(state)
                from repro.service.metrics import cache_series

                counters, gauges = cache_series(engine.cache_info())
                metrics.update(counters)
                metrics.update(gauges)
        if args.prometheus:
            counters = dict(metrics)
            counters.update(tracer.counter_snapshot())
            # A rate is a level, not a monotone count: gauge it.
            gauges = {
                name: counters.pop(name)
                for name in list(counters)
                if name.endswith(".hit_rate")
            }
            print(
                prometheus_text(
                    counters=counters,
                    gauges=gauges,
                    histograms=tracer.histograms(),
                ),
                end="",
            )
        elif args.json:
            report = {
                "spans": tracer.span_summaries(),
                "counters": tracer.counter_snapshot(),
                "metrics": metrics,
            }
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(_render_span_table(tracer.span_summaries()))
            counters = dict(metrics)
            counters.update(tracer.counter_snapshot())
            if counters:
                print()
                for name in sorted(counters):
                    print(f"{name} = {counters[name]:g}")
        return 0
    finally:
        tracer.close()


def _cmd_keys(args: argparse.Namespace) -> int:
    from repro.fd.armstrong import explain_key

    scheme = load_scheme(args.scheme)
    for member in scheme.relations:
        rendered = ", ".join(fmt_attrs(key) for key in member.keys)
        print(f"{member.name}({fmt_attrs(member.attributes)}): keys {rendered}")
        if args.explain:
            for key in member.keys:
                if key == member.attributes:
                    print("   (all-key: nothing to derive)")
                    continue
                derivation = explain_key(member.attributes, key, scheme.fds)
                for line in derivation.render().splitlines():
                    print("   " + line)
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from repro.core.reducible import recognize_independence_reducible

    scheme = load_scheme(args.scheme)
    result = recognize_independence_reducible(scheme)
    print(result.describe())
    return 0 if result.accepted else 2


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.schema.decompose import decompose_bcnf

    fds = FDSet(args.fds)
    if args.bcnf:
        universe = args.universe if args.universe else fds.attributes
        scheme = decompose_bcnf(universe, fds)
    else:
        scheme = synthesize_3nf(
            fds, universe=args.universe if args.universe else None
        )
    if args.out:
        dump_scheme(scheme, args.out)
        print(f"scheme written to {args.out}")
    else:
        print(json.dumps(scheme_to_dict(scheme), indent=2, sort_keys=True))
    print(f"# embedded key dependencies: {scheme.fds}", file=sys.stderr)
    return 0


#: Directories `repro lint` sweeps by default (tests stay out: fixture
#: files seed deliberate violations).
LINT_DEFAULT_DIRS = ("src", "scripts", "benchmarks", "examples")

#: The configured project rules are src-specific: their maps name
#: ``src/``-relative entry points, so firing them on ``scripts/`` or
#: ``benchmarks/`` would only ever produce noise.
LINT_RULE_PATHS = {
    "span-hygiene": ("src/",),
    "cache-invalidation": ("src/",),
}


def _changed_python_files(root):
    """Root-relative ``.py`` files touched since HEAD (tracked diffs
    plus untracked files), for ``repro lint --changed``.  Confined to
    the default lint directories so a changed-scoped run agrees with
    the full sweep on every file it visits (``tests/`` fixtures seed
    deliberate violations and must stay out of both)."""
    import subprocess

    names: set = set()
    for command in (
        ["git", "diff", "--name-only", "HEAD", "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        result = subprocess.run(
            command, cwd=root, capture_output=True, text=True, check=True
        )
        names.update(line.strip() for line in result.stdout.splitlines())
    paths = []
    for name in sorted(names):
        if not name.split("/", 1)[0] in LINT_DEFAULT_DIRS:
            continue
        path = root / name
        if path.suffix == ".py" and path.is_file():
            paths.append(path)
    return paths


def _restrict_to_displays(config, displays):
    """Drop config entries whose file is outside the scanned set, so a
    ``--changed`` run doesn't report every unscanned entry point as
    vanished.  Works for both SpanConfig and InvalidationConfig."""
    import dataclasses

    def keep(key: str) -> bool:
        # Config keys carry module suffixes ("core/engine.py"), not
        # full root-relative paths.
        suffix = key.split("::", 1)[0]
        return any(display.endswith(suffix) for display in displays)

    changes = {
        "required": {k: v for k, v in config.required.items() if keep(k)},
    }
    if hasattr(config, "surface"):
        changes["exempt"] = {
            k: v for k, v in config.exempt.items() if keep(k)
        }
        changes["surface"] = tuple(s for s in config.surface if keep(s))
        changes["catalogue"] = None  # partial scans can't prove span orphans
    return dataclasses.replace(config, **changes)


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import baseline as baseline_mod
    from repro.analysis import (
        ALL_RULES,
        default_config,
        default_invalidation_config,
        lint_paths,
        render_json,
        render_text,
    )

    root = Path(args.root)
    rules = (
        tuple(rule.strip() for rule in args.rules.split(",") if rule.strip())
        if args.rules
        else ALL_RULES
    )
    span_config = default_config(root)
    invalidation_config = default_invalidation_config()

    if args.changed:
        if args.paths:
            print(
                "error: --changed and explicit paths are mutually "
                "exclusive",
                file=sys.stderr,
            )
            return 1
        try:
            paths = _changed_python_files(root)
        except Exception as error:  # git missing or not a checkout
            print(f"error: --changed needs git ({error})", file=sys.stderr)
            return 1
        if not paths:
            print("no changed python files to lint")
            return 0
        displays = set()
        for path in paths:
            try:
                displays.add(
                    path.resolve().relative_to(root.resolve()).as_posix()
                )
            except ValueError:
                displays.add(path.as_posix())
        span_config = _restrict_to_displays(span_config, displays)
        invalidation_config = _restrict_to_displays(
            invalidation_config, displays
        )
    elif args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = [
            root / name
            for name in LINT_DEFAULT_DIRS
            if (root / name).is_dir()
        ]

    try:
        findings = lint_paths(
            paths,
            root=root,
            rules=rules,
            span_config=span_config,
            invalidation_config=invalidation_config,
            rule_paths=LINT_RULE_PATHS,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if args.write_baseline:
        baseline_path = Path(args.baseline or root / "lint-baseline.json")
        baseline_mod.save(baseline_path, findings)
        print(
            f"baseline written to {baseline_path} "
            f"({len(findings)} finding(s) recorded)"
        )
        return 0

    suppressed = 0
    if args.baseline:
        baseline_path = Path(args.baseline)
        if baseline_path.exists():
            allowed = baseline_mod.load(baseline_path)
            findings, suppressed = baseline_mod.apply(findings, allowed)
        else:
            print(
                f"warning: baseline {baseline_path} not found; "
                "reporting all findings",
                file=sys.stderr,
            )

    if args.json:
        print(render_json(findings, suppressed=suppressed))
    else:
        print(render_text(findings))
        if suppressed:
            print(f"({suppressed} baselined finding(s) suppressed)")
    return 1 if findings else 0


def _cmd_shard_bench(args: argparse.Namespace) -> int:
    """Bench the sharded tier and merge into ``BENCH_perf.json``."""
    from pathlib import Path

    from repro import bench as bench_mod

    counts = tuple(
        int(part) for part in str(args.shards).split(",") if part.strip()
    )
    if not counts:
        print("error: --shards needs at least one count", file=sys.stderr)
        return 1
    scenarios = bench_mod.run_shard_scenarios(
        shard_counts=counts,
        rounds=args.rounds,
        fsync_every=args.fsync_every,
        seed_rows=args.seed_rows,
        repeats=args.repeats,
    )
    path = (
        Path(args.out)
        if args.out
        else bench_mod._repo_root() / bench_mod.BENCH_PATH_NAME
    )
    bench_mod.write_report(scenarios, path)
    bench_mod._print_scenarios(scenarios)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Independence-reducible database schemes "
            "(Chan & Hernández, PODS 1988)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="classify a scheme")
    analyze.add_argument("scheme", help="scheme JSON file")
    analyze.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    analyze.set_defaults(func=_cmd_analyze)

    explain = commands.add_parser(
        "explain", help="show the predetermined plan for a total projection"
    )
    explain.add_argument("scheme", help="scheme JSON file")
    explain.add_argument("--target", required=True, help="attributes, e.g. ACG")
    explain.set_defaults(func=_cmd_explain)

    check = commands.add_parser("check", help="check a state's consistency")
    check.add_argument("scheme", help="scheme JSON file")
    check.add_argument("state", help="state JSON file")
    check.set_defaults(func=_cmd_check)

    query = commands.add_parser("query", help="evaluate a total projection")
    query.add_argument("scheme", help="scheme JSON file")
    query.add_argument("state", help="state JSON file")
    query.add_argument("--target", required=True, help="attributes, e.g. ACG")
    _add_trace_flags(query)
    query.set_defaults(func=_cmd_query)

    insert = commands.add_parser("insert", help="validate one insertion")
    insert.add_argument(
        "scheme", nargs="?", help="scheme JSON file (omit with --store)"
    )
    insert.add_argument(
        "state", nargs="?", help="state JSON file (omit with --store)"
    )
    insert.add_argument("--relation", required=True)
    insert.add_argument(
        "--values", required=True, type=_parse_values, help="A=a,B=b,..."
    )
    insert.add_argument("--out", help="write the updated state here")
    insert.add_argument(
        "--store",
        help="persist through a durable store directory instead of "
        "STATE.json (created from SCHEME.json when missing)",
    )
    _add_trace_flags(insert)
    insert.set_defaults(func=_cmd_insert)

    serve = commands.add_parser(
        "serve",
        help="serve a store through the shard router, over the line "
        "protocol or (with --port) the frame frontend",
    )
    serve.add_argument(
        "scheme",
        nargs="?",
        help="scheme JSON file (required unless --store names an "
        "existing store)",
    )
    serve.add_argument("--store", help="durable store directory")
    serve.add_argument(
        "--script",
        help="read protocol commands from this file instead of stdin",
    )
    serve.add_argument(
        "--fsync-every",
        type=int,
        default=1,
        dest="fsync_every",
        help="batch WAL fsyncs (default 1 = strict durability)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="spread the scheme's independent blocks over this many "
        "shard stores, each with its own WAL, all in this process "
        "(clamped to the block count; default 1; an existing store "
        "keeps its own count)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --port (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve the asyncio frame protocol on this TCP port "
        "(0 picks a free one) instead of the stdin line protocol",
    )
    _add_trace_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    shard_bench = commands.add_parser(
        "shard-bench",
        help="bench the sharded serving tier at several shard counts",
    )
    shard_bench.add_argument(
        "--shards",
        default="1,4,8",
        help="comma-separated shard counts to bench (default 1,4,8)",
    )
    shard_bench.add_argument(
        "--rounds",
        type=int,
        default=4,
        help="mixed-workload rounds per shard count (default 4)",
    )
    shard_bench.add_argument(
        "--seed-rows",
        type=int,
        default=240,
        dest="seed_rows",
        help="untimed rows seeded per tile before timing (default 240)",
    )
    shard_bench.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed cycles per shard count; best is reported (default 3)",
    )
    shard_bench.add_argument(
        "--fsync-every",
        type=int,
        default=32,
        dest="fsync_every",
        help="WAL fsync batching during the bench (default 32)",
    )
    shard_bench.add_argument(
        "--out",
        help="report path (default: BENCH_perf.json at the repo root)",
    )
    shard_bench.set_defaults(func=_cmd_shard_bench)

    stats = commands.add_parser(
        "stats",
        help="trace a workload and report per-stage latency histograms",
    )
    stats.add_argument(
        "scheme", nargs="?", help="scheme JSON file (omit with --store)"
    )
    stats.add_argument(
        "state", nargs="?", help="state JSON file (omit with --store)"
    )
    stats.add_argument(
        "--store", help="trace recovery + queries of this store directory"
    )
    stats.add_argument(
        "--target",
        help="attributes to query, e.g. ACG (default: chase only)",
    )
    stats.add_argument(
        "--repeat",
        type=int,
        default=5,
        help="how many traced queries to run (default 5)",
    )
    stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    stats.add_argument(
        "--prometheus",
        action="store_true",
        help="Prometheus text exposition instead of the table",
    )
    _add_trace_flags(stats)
    stats.set_defaults(func=_cmd_stats)

    replay = commands.add_parser(
        "replay", help="recover a durable store and report what happened"
    )
    replay.add_argument("--store", required=True, help="store directory")
    replay.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    replay.add_argument("--out", help="write the recovered state here")
    replay.set_defaults(func=_cmd_replay)

    recover = commands.add_parser(
        "recover",
        help="point-in-time recovery: rebuild the state as of a "
        "sequence number",
    )
    recover.add_argument("--store", required=True, help="store directory")
    recover.add_argument(
        "--as-of",
        type=int,
        required=True,
        dest="as_of",
        help="stop the replay after this sequence number",
    )
    recover.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    recover.add_argument(
        "--out", help="write the point-in-time state here"
    )
    recover.set_defaults(func=_cmd_recover)

    keys = commands.add_parser(
        "keys", help="list (and optionally derive) every declared key"
    )
    keys.add_argument("scheme", help="scheme JSON file")
    keys.add_argument(
        "--explain",
        action="store_true",
        help="print an Armstrong derivation for each key",
    )
    keys.set_defaults(func=_cmd_keys)

    partition = commands.add_parser(
        "partition",
        help="show the key-equivalent partition and the Algorithm 6 verdict",
    )
    partition.add_argument("scheme", help="scheme JSON file")
    partition.set_defaults(func=_cmd_partition)

    synthesize = commands.add_parser(
        "synthesize", help="3NF-synthesize a scheme from fds"
    )
    synthesize.add_argument(
        "--fds", required=True, help='arrow notation, e.g. "A->B, B->C"'
    )
    synthesize.add_argument("--universe", default=None)
    synthesize.add_argument(
        "--bcnf",
        action="store_true",
        help="lossless BCNF decomposition instead of 3NF synthesis "
        "(may lose dependency preservation)",
    )
    synthesize.add_argument("--out", help="write the scheme here")
    synthesize.set_defaults(func=_cmd_synthesize)

    from repro.analysis import RULE_CODES

    lint = commands.add_parser(
        "lint",
        help="run the invariant linter (lock/async discipline, "
        "determinism, resource safety, span hygiene, lock order, "
        "cache invalidation)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the src/, "
        "scripts/, benchmarks/ and examples/ trees under <root>)",
    )
    lint.add_argument(
        "--changed",
        action="store_true",
        help="lint only python files touched since HEAD (git diff plus "
        "untracked); project-rule maps are narrowed to the scanned "
        "files so partial runs stay noise-free",
    )
    lint.add_argument(
        "--root",
        default=".",
        help="repo root: findings are reported relative to it and the "
        "span catalogue is read from <root>/docs/ARCHITECTURE.md",
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    lint.add_argument(
        "--baseline",
        help="suppress findings recorded in this baseline file; only "
        "new findings fail the run",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file "
        "(--baseline, default <root>/lint-baseline.json) and exit 0",
    )
    lint.add_argument(
        "--rules",
        help="comma-separated subset of rules to run (default: all). "
        + " ".join(
            f"{rule}: {summary}." for rule, summary in RULE_CODES.items()
        ),
    )
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

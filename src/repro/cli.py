"""Command line interface: ``python -m repro <command>``.

Commands
--------
list                 enumerate the 29-workload suite
analyze WORKLOAD     per-workload Needle report (paths, braids, frames)
evaluate [WORKLOAD]  Fig. 9 / Fig. 10 style numbers (one workload or all)
dump WORKLOAD        print the workload's hot function as IR text
metrics [WORKLOAD]   evaluate with instrumentation on; print the registry
trace [WORKLOAD]     evaluate with instrumentation on; print the span tree
                     (or --format chrome for a Perfetto-loadable trace)
report table [W]     paper-style cycle/energy attribution tables (ledger)
report diff A B      compare two metric snapshots; exit 1 on regression
top EVENTS.jsonl     one-screen progress view of a sweep, folded from
                     the event log it writes with --events-out

``analyze`` and ``evaluate`` persist profiles and evaluation results in a
content-addressed artifact cache (default ``~/.cache/repro-needle``, or
``$REPRO_CACHE_DIR``), so repeat invocations skip re-profiling; ``--no-cache``
bypasses it and ``--cache-dir`` relocates it.  ``evaluate --jobs N`` shards
the suite across N pool workers; ``--pool {serial,process,thread}``
picks the execution backend (default: warm worker processes, results
bitwise-identical on every backend).  Every pipeline command accepts
``--metrics`` (print the observability registry afterwards) and
``--metrics-out PATH`` (write it as JSON); the flags come from
:class:`~repro.options.PipelineOptions`, the same options surface the
Python API uses.  Suite sweeps are fail-safe: ``--timeout``,
``--retries`` and ``--fail-fast`` control the retry/quarantine policy
(quarantined workloads render as ``failed:<kind>`` rows), and
``--fault-plan plan.json`` injects a deterministic chaos plan
(docs/resilience.md).  ``--trace-kernels events`` selects the per-event
reference oracle (event-by-event accounting and the exact cache replay)
and ``--no-sim-memo`` disables the cross-strategy simulation memo — both
bitwise-neutral, perf-only knobs (docs/performance.md).

Suite sweeps are also *crash-safe*: ``--journal-dir DIR`` (or
``$REPRO_JOURNAL_DIR``) writes a write-ahead run journal, and
``evaluate --resume RUN_ID`` continues a killed run — completed
workloads are restored from the journal and the merged output is
byte-identical to an uninterrupted sweep.  SIGINT/SIGTERM during a
journaled sweep drains in-flight work (bounded by ``--drain-timeout``),
prints the resume command, and exits with code 75; the
``--max-total-failures`` / ``--max-consecutive-failures`` circuit
breaker aborts a doomed suite early (docs/resilience.md).

Suite sweeps can carry *live telemetry* (docs/observability.md):
``--events-out EVENTS.jsonl`` appends a typed, gapless event log with
worker heartbeats and stall detection, and ``repro top EVENTS.jsonl``
folds that log into a one-screen progress view, while the sweep runs
or after.  It is wall-clock-only: semantic output is byte-identical
with telemetry on or off.  The global ``--log-level``
flag (or ``$REPRO_LOG_LEVEL``) configures logging in one place.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import obs, workloads
from .obs import export as obs_export
from .obs import timeline as obs_timeline
from .options import PipelineOptions
from .pipeline import NeedlePipeline, WorkloadEvaluation
from .resilience import WorkloadFailure
from .resilience.journal import JournalError, RunJournal, resolve_journal_dir
from .resilience.shutdown import EXIT_DRAINED, SweepDrained


def _load_metrics_file(path: str) -> dict:
    """Load a saved metrics/snapshot JSON file for ``--from`` style flags.

    A missing, unreadable or corrupt file is an *expected* operator
    error: it exits with a clean one-line message on stderr (exit code
    1 via :class:`SystemExit`), never a traceback.
    """
    import json as _json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = _json.load(fh)
    except OSError as exc:
        raise SystemExit(
            "error: cannot read metrics file %s: %s"
            % (path, exc.strerror or exc))
    except ValueError as exc:
        raise SystemExit(
            "error: metrics file %s is not valid JSON: %s" % (path, exc))
    if not isinstance(data, dict):
        raise SystemExit(
            "error: metrics file %s is not a metrics snapshot "
            "(expected a JSON object)" % path)
    return data


def _options_from_args(args) -> PipelineOptions:
    opts = PipelineOptions.from_args(args)
    if opts.wants_metrics:
        obs.enable(reset=True)
    return opts


def _make_pipeline(args) -> NeedlePipeline:
    return _options_from_args(args).build_pipeline()


def _finish_metrics(
    opts: PipelineOptions,
    pipeline: Optional[NeedlePipeline] = None,
    names: Optional[List[str]] = None,
) -> None:
    """Emit whatever metrics/timeline output the run asked for."""
    if opts.metrics_out is not None:
        with open(opts.metrics_out, "w") as fh:
            fh.write(obs_export.to_json(None))
    if opts.timeline_out is not None:
        obs_timeline.write_chrome_trace(
            opts.timeline_out,
            span_roots=obs.registry().span_roots,
            sim_tracks=_sim_tracks(pipeline, names),
        )
    if opts.metrics:
        print()
        print(obs_export.render_metrics(None))


def _sim_tracks(
    pipeline: Optional[NeedlePipeline], names: Optional[List[str]]
) -> dict:
    """"workload/strategy" -> simulated timeline events for the chrome
    trace (empty when the command has no pipeline to replay)."""
    tracks: dict = {}
    if pipeline is None or not names:
        return tracks
    for name in names:
        per_strategy = pipeline.timeline(workloads.get(name))
        for strategy, events in per_strategy.items():
            tracks["%s/%s" % (name, strategy)] = events
    return tracks


def _cmd_list(_args) -> int:
    from .reporting import format_table

    rows = []
    for name in workloads.all_names():
        w = workloads.get(name)
        rows.append((name, w.suite, w.flavor, w.description))
    print(format_table(["workload", "suite", "flavor", "description"], rows))
    return 0


def _cmd_dump(args) -> int:
    w = workloads.get(args.workload)
    module, fn, _ = w.build()
    from .ir import format_module

    print(format_module(module))
    return 0


def _cmd_analyze(args) -> int:
    from .interp import Interpreter, OpMixTracer
    from .reporting import format_table

    opts = _options_from_args(args)
    pipeline = opts.build_pipeline()
    w = workloads.get(args.workload)
    a = pipeline.analyse(w)
    print("%s: %d executed paths, top braid merges %d paths for %.1f%% coverage"
          % (w.name, a.profiled.paths.executed_paths,
             a.top_braid.n_paths if a.top_braid else 0,
             (a.top_braid.coverage if a.top_braid else 0) * 100))

    module, fn, run_args = w.build()
    tracer = OpMixTracer([fn])
    Interpreter(module, tracer=tracer).run(fn, run_args)
    mix = tracer.mix_for(fn)
    print("dynamic mix: %.0f%% int, %.0f%% fp, %.0f%% memory, %.0f%% control"
          % (mix.int_share * 100, mix.fp_share * 100,
             mix.memory_share * 100, mix.control_share * 100))
    rows = [
        (p.path_id, p.freq, p.ops, p.branch_count, p.memory_op_count,
         p.coverage * 100)
        for p in a.ranked[: args.top]
    ]
    print(format_table(
        ["path", "freq", "ops", "branches", "mem", "coverage %"], rows))
    if a.braid_frame is not None:
        f = a.braid_frame
        print("braid frame: %d ops, %d guards, %d psi, %d live-in, %d live-out"
              % (f.op_count, f.guard_count, len(f.psis),
                 len(f.live_ins), len(f.live_outs)))
    _finish_metrics(opts, pipeline, [w.name])
    return 0


#: printed for outcomes a workload did not produce (no path/braid frame)
MISSING_CELL = "—"


def _percent_cell(outcome, attr: str):
    """``value * 100`` of an outcome attribute, or an em-dash when the
    workload produced no frame for that strategy."""
    if outcome is None:
        return MISSING_CELL
    return getattr(outcome, attr) * 100


def evaluation_row(name: str, ev: WorkloadEvaluation) -> tuple:
    """One table row; missing outcomes render as em-dashes, never crash.

    A quarantined workload (its slot holds a
    :class:`~repro.resilience.WorkloadFailure`) renders as a failure
    marker instead of numbers — the sweep reports it, it does not
    abort the table.
    """
    if isinstance(ev, WorkloadFailure):
        return (
            name,
            "failed:%s x%d" % (ev.kind, ev.attempts),
            MISSING_CELL,
            MISSING_CELL,
            MISSING_CELL,
            MISSING_CELL,
        )
    return (
        name,
        _percent_cell(ev.path_oracle, "performance_improvement"),
        _percent_cell(ev.path_history, "performance_improvement"),
        _percent_cell(ev.braid, "performance_improvement"),
        _percent_cell(ev.braid, "energy_reduction"),
        _percent_cell(ev.hls, "alm_fraction"),
    )


def _resume_manifest(opts: PipelineOptions) -> List[str]:
    """The workload names a ``--resume`` run must evaluate: exactly the
    manifest its journal header recorded (anything else is a mismatch)."""
    journal_dir = resolve_journal_dir(opts.journal_dir)
    if journal_dir is None:
        raise SystemExit(
            "--resume needs --journal-dir or $REPRO_JOURNAL_DIR to find "
            "the journal")
    try:
        header = RunJournal.peek(journal_dir, opts.resume)
    except JournalError as exc:
        raise SystemExit(str(exc))
    return list(header.get("manifest") or workloads.all_names())


def _run_evaluations(args, opts: PipelineOptions):
    pipeline = _make_pipeline(args)
    if getattr(args, "resume", None):
        if args.workload:
            raise SystemExit(
                "--resume replays the journaled suite manifest; drop the "
                "workload argument")
        names = _resume_manifest(opts)
    elif args.workload:
        # a single name or a comma-separated subset — handy for smoke
        # runs and for journaled sweeps that should stay small
        names = [n.strip() for n in args.workload.split(",") if n.strip()]
    else:
        names = workloads.all_names()
    evaluations = pipeline.evaluate_all(
        [workloads.get(name) for name in names]
    )
    return names, evaluations, pipeline


def _cmd_evaluate(args) -> int:
    from .reporting import format_table

    opts = _options_from_args(args)
    names, evaluations, pipeline = _run_evaluations(args, opts)
    rows = [evaluation_row(name, ev) for name, ev in zip(names, evaluations)]
    print(format_table(
        ["workload", "path oracle %", "path hist %", "braid %",
         "energy %", "ALM %"],
        rows,
        title="Needle offload evaluation",
    ))
    _finish_metrics(opts, pipeline, names)
    return 0


def _cmd_metrics(args) -> int:
    if args.snapshot is not None:
        data = _load_metrics_file(args.snapshot)
        if args.format == "json":
            print(obs_export.to_json(data))
        elif args.format == "prom":
            print(obs_export.to_prometheus(data))
        else:
            print(obs_export.render_metrics(data))
        return 0
    opts = _options_from_args(args)
    obs.enable(reset=True)
    names, _evaluations, pipeline = _run_evaluations(args, opts)
    if args.format == "json":
        print(obs_export.to_json(None))
    elif args.format == "prom":
        print(obs_export.to_prometheus(None))
    else:
        print(obs_export.render_metrics(None))
    if opts.metrics_out is not None:
        with open(opts.metrics_out, "w") as fh:
            fh.write(obs_export.to_json(None))
    if opts.timeline_out is not None:
        obs_timeline.write_chrome_trace(
            opts.timeline_out,
            span_roots=obs.registry().span_roots,
            sim_tracks=_sim_tracks(pipeline, names),
        )
    return 0


def _cmd_trace(args) -> int:
    """Span/timeline views of an instrumented run.

    ``--format tree`` (default) prints the indented wall-clock span
    tree; ``--format json`` prints the span forest as JSON; ``--format
    chrome`` prints a Chrome trace-event document (wall-clock spans plus
    simulated-cycle tracks) for Perfetto.  When no span data was
    recorded the command prints a clean message to stderr and exits 1 —
    never a traceback.  ``--from PATH`` renders a saved snapshot
    (``tree``/``json`` formats) instead of re-evaluating.
    """
    if args.snapshot is not None:
        data = _load_metrics_file(args.snapshot)
        spans = data.get("spans") or []
        if args.format == "chrome":
            print("--from renders saved wall-clock spans only; the chrome "
                  "format needs a live run (use --format tree or json)",
                  file=sys.stderr)
            return 1
        if not spans:
            print("no span data in %s — nothing to trace" % args.snapshot,
                  file=sys.stderr)
            return 1
        if args.format == "json":
            import json as _json

            print(_json.dumps(spans, indent=2, sort_keys=True))
        else:
            print(obs_export.render_trace(data))
        return 0
    opts = _options_from_args(args)
    obs.enable(reset=True)
    names, _evaluations, pipeline = _run_evaluations(args, opts)
    roots = obs.registry().span_roots
    if args.format == "chrome":
        tracks = _sim_tracks(pipeline, names)
        if not roots and not tracks:
            print("no span or timeline data recorded — nothing to trace",
                  file=sys.stderr)
            return 1
        print(obs_timeline.render_chrome(roots, tracks))
    elif args.format == "json":
        if not roots:
            print("no span data recorded — nothing to trace",
                  file=sys.stderr)
            return 1
        import json as _json

        print(_json.dumps([n.to_dict() for n in roots],
                          indent=2, sort_keys=True))
    else:
        if not roots:
            print("no span data recorded — nothing to trace",
                  file=sys.stderr)
            return 1
        print(obs_export.render_trace(None))
    if opts.metrics_out is not None:
        with open(opts.metrics_out, "w") as fh:
            fh.write(obs_export.to_json(None))
    if opts.timeline_out is not None:
        obs_timeline.write_chrome_trace(
            opts.timeline_out,
            span_roots=roots,
            sim_tracks=_sim_tracks(pipeline, names),
        )
    return 0


def _cmd_report_table(args) -> int:
    """Render the Fig. 9/10-style attribution tables from a run's ledger.

    Either re-evaluates (default; honours the pipeline flags and the
    artifact cache) or renders from a saved ``--metrics-out`` /
    ``semantic_json`` snapshot via ``--from``.
    """
    from .obs.ledger import AttributionLedger
    from .reporting import render_attribution

    if args.snapshot is not None:
        data = _load_metrics_file(args.snapshot)
        ledger = AttributionLedger()
        ledger.merge_snapshot(data.get("ledger"))
        print(render_attribution(ledger, args.workload))
        return 0
    opts = _options_from_args(args)
    obs.enable(reset=True)
    _run_evaluations(args, opts)
    print(render_attribution(obs.ledger(), args.workload))
    _finish_metrics(opts)
    return 0


def _parse_threshold_overrides(pairs) -> list:
    """``PATTERN=FRACTION`` CLI forms -> (pattern, fraction) tuples."""
    overrides = []
    for pair in pairs or ():
        pattern, sep, fraction = pair.partition("=")
        if not sep:
            raise SystemExit(
                "--threshold expects PATTERN=FRACTION, got %r" % pair)
        try:
            overrides.append((pattern, float(fraction)))
        except ValueError:
            raise SystemExit(
                "--threshold fraction must be numeric, got %r" % pair)
    return overrides


def _cmd_report_diff(args) -> int:
    """Diff two snapshots; exit 1 when any metric regressed."""
    from .reporting import Thresholds, diff_snapshots, load_snapshot, \
        render_diff

    thresholds = Thresholds(
        default=args.default_threshold,
        overrides=_parse_threshold_overrides(args.threshold),
        ignore=list(args.ignore or ()),
    )
    def _load(path):
        try:
            return load_snapshot(path)
        except OSError as exc:
            raise SystemExit(
                "error: cannot read snapshot %s: %s"
                % (path, exc.strerror or exc))
        except ValueError as exc:
            raise SystemExit(
                "error: snapshot %s is not valid JSON: %s" % (path, exc))

    result = diff_snapshots(_load(args.old), _load(args.new), thresholds)
    print(render_diff(result, verbose=args.verbose))
    return result.exit_code


def _cmd_top(args) -> int:
    """Render the sweep view folded from an events JSONL log."""
    from .obs.top import run_top

    try:
        return run_top(args.events, interval=args.interval, once=args.once)
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Needle (HPCA 2017) reproduction CLI"
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="logging level for every repro.* logger (DEBUG, INFO, "
        "WARNING, ERROR; default: $REPRO_LOG_LEVEL or WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the workload suite").set_defaults(
        func=_cmd_list
    )

    p = sub.add_parser("dump", help="print a workload's hot function IR")
    p.add_argument("workload")
    p.set_defaults(func=_cmd_dump)

    p = sub.add_parser("analyze", help="per-workload Needle analysis")
    p.add_argument("workload")
    p.add_argument("--top", type=int, default=5)
    PipelineOptions.add_cli_arguments(p, jobs=False)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("evaluate", help="simulate offload (Fig. 9/10 numbers)")
    p.add_argument("workload", nargs="?", default=None,
                   help="one workload, or a comma-separated subset "
                        "(default: the whole suite)")
    PipelineOptions.add_cli_arguments(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser(
        "metrics",
        help="evaluate with instrumentation on and print the metric registry",
    )
    p.add_argument("workload", nargs="?", default=None)
    p.add_argument(
        "--format",
        choices=("table", "json", "prom"),
        default="table",
        help="output format (human table, JSON, or Prometheus text)",
    )
    p.add_argument(
        "--from",
        dest="snapshot",
        default=None,
        metavar="PATH",
        help="render a saved --metrics-out JSON snapshot instead of "
        "re-evaluating",
    )
    PipelineOptions.add_cli_arguments(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "trace",
        help="evaluate with instrumentation on and print the span tree "
        "or a Chrome trace",
    )
    p.add_argument("workload", nargs="?", default=None)
    p.add_argument(
        "--format",
        choices=("tree", "chrome", "json"),
        default="tree",
        help="tree: indented wall-clock spans (default); chrome: "
        "trace-event JSON with simulated-cycle tracks (Perfetto); "
        "json: raw span forest",
    )
    p.add_argument(
        "--from",
        dest="snapshot",
        default=None,
        metavar="PATH",
        help="render spans from a saved --metrics-out JSON snapshot "
        "instead of re-evaluating (tree/json formats)",
    )
    PipelineOptions.add_cli_arguments(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "report",
        help="attribution tables and snapshot regression diffing",
    )
    report_sub = p.add_subparsers(dest="report_command", required=True)

    p = report_sub.add_parser(
        "table",
        help="paper-style cycle/energy attribution tables from the ledger",
    )
    p.add_argument("workload", nargs="?", default=None)
    p.add_argument(
        "--from",
        dest="snapshot",
        default=None,
        metavar="PATH",
        help="render from a saved metrics JSON snapshot instead of "
        "re-evaluating",
    )
    PipelineOptions.add_cli_arguments(p)
    p.set_defaults(func=_cmd_report_table)

    p = report_sub.add_parser(
        "diff",
        help="compare two metric snapshots; exit 1 on regression",
    )
    p.add_argument("old", help="baseline snapshot JSON (metrics or BENCH_*)")
    p.add_argument("new", help="candidate snapshot JSON")
    p.add_argument(
        "--default-threshold",
        type=float,
        default=0.05,
        metavar="FRAC",
        help="relative change tolerated per metric (default: 0.05)",
    )
    p.add_argument(
        "--threshold",
        action="append",
        metavar="PATTERN=FRAC",
        help="per-metric tolerance override (fnmatch pattern, repeatable)",
    )
    p.add_argument(
        "--ignore",
        action="append",
        metavar="PATTERN",
        help="metrics matching this fnmatch pattern never gate (repeatable)",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="show every metric, not just changed ones",
    )
    p.set_defaults(func=_cmd_report_diff)

    p = sub.add_parser(
        "top",
        help="one-screen progress view of a sweep's event log",
    )
    p.add_argument(
        "events",
        metavar="EVENTS.jsonl",
        help="the event log a sweep writes with --events-out (the last "
        "run in the file is shown)",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SEC",
        help="refresh period in seconds (default: 1.0)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit",
    )
    p.set_defaults(func=_cmd_top)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obs.logging_setup(getattr(args, "log_level", None))
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except SweepDrained as exc:
        # a journaled sweep drained on SIGINT/SIGTERM: everything that
        # finished is durable; say how to pick the run back up
        print(
            "\nsweep interrupted: %d workload(s) completed and journaled, "
            "%d outstanding (drained in %.1fs)"
            % (exc.completed, len(exc.outstanding), exc.drain_seconds),
            file=sys.stderr,
        )
        resume = exc.resume_command()
        if resume is not None:
            print("resume with:\n  %s" % resume, file=sys.stderr)
        return EXIT_DRAINED
    except JournalError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


__all__ = ["build_parser", "evaluation_row", "main"]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
